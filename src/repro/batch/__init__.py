"""Batched lockstep simulation kernel.

``repro.batch`` steps many (config, seed) simulation instances inside
one process, bit-identical per instance to the scalar engine
(``repro.sim`` / ``repro.controller``), which remains the reference.
See docs/SIMULATOR.md "Batched execution".
"""

from repro.batch.compat import (
    group_key,
    incompatibility,
    is_batchable,
    job_incompatibility,
)
from repro.batch.kernel import (
    MAX_LANES,
    BatchCompatError,
    BatchInstance,
    BatchKernel,
    from_verify_case,
    run_batch,
)

__all__ = [
    "MAX_LANES",
    "BatchCompatError",
    "BatchInstance",
    "BatchKernel",
    "from_verify_case",
    "group_key",
    "incompatibility",
    "is_batchable",
    "job_incompatibility",
    "run_batch",
]
