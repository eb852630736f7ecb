"""Host topology probe shared by sweep traces and BENCH records.

Perf numbers only compare across machines when the machine shape rides
along: parallel speedups are meaningless on a single-core box.
Every BENCH record and every sweep trace therefore embeds this block,
and ``benchmarks/check_perf_regression.py`` uses it to skip
parallelism-dependent floors on mismatched topology.
"""

from __future__ import annotations

import os
from typing import Any, Dict


def physical_memory_gb() -> float:
    """Total physical memory in GiB, or 0.0 when the probe is unavailable.

    Memory-bound floors (the column-engine scale bench holds a
    million-node event-engine run in RAM) are skipped on boxes below the
    baseline's ``min_mem_gb``, the same way parallelism-dependent floors
    skip on low core counts.
    """
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return 0.0
    if pages <= 0 or page_size <= 0:
        return 0.0
    return round(pages * page_size / 2**30, 2)


def topology() -> Dict[str, Any]:
    """Describe the host: cpu count, memory, workers, shm availability."""
    info: Dict[str, Any] = {"cpu_count": os.cpu_count() or 1}
    mem = physical_memory_gb()
    if mem:
        info["mem_gb"] = mem
    try:
        from ..experiments.runner import default_workers

        info["effective_workers"] = default_workers()
    except Exception:
        info["effective_workers"] = 1
    try:
        from ..experiments.graphstore import shm_available

        info["shm_available"] = bool(shm_available())
    except Exception:
        info["shm_available"] = False
    return info
