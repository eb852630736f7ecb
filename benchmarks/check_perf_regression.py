#!/usr/bin/env python
"""Gate a ``BENCH_*.json`` perf record against a baseline record.

Usage::

    python benchmarks/check_perf_regression.py CURRENT.json BASELINE.json \
        [--tolerance 0.15] [--only METRIC ...]

Compares every *ratio* metric (name ending in ``_speedup``) present in the
baseline's ``metrics`` against the current record and exits non-zero when
any regresses by more than the tolerance — i.e. when
``current < (1 - tolerance) * baseline``.  Ratio metrics are two
measurements taken in the same process on the same machine, so they are
comparable across machines; absolute wall times and throughputs are
reported for context but never gated.

Topology-aware skipping: a baseline may declare some of its gated metrics
``parallelism_dependent`` (a list of metric names) together with a
``topology.min_cores`` requirement.  When the current record was measured
on a box with fewer cores, those floors are *skipped* — visibly, with a
GitHub Actions warning annotation when running in CI — instead of tripping
on machine shape rather than regression (the ``socket_loopback_*`` speedup
is meaningless on a 2-worker box when the floor was calibrated on 4
cores).  Likewise ``memory_dependent`` metrics paired with
``topology.min_mem_gb`` skip on boxes without the RAM the floor was
calibrated against (the column-engine scale leg holds a million-node
event-engine run in memory).  Every BENCH record carries its host shape
in a ``topology`` block (see ``perf_record.topology``).

Absolute floors: a baseline may also declare ``floors`` (metric name →
minimum value) gated *without* tolerance — used for the telemetry
overhead gate, where the floor (0.97) already encodes the allowance.

``--only`` restricts gating to the named metrics (still honoring skip
rules) so CI can surface a specific gate as its own step.

The committed baselines under ``benchmarks/baselines/`` hold conservative
floors (below what healthy CI runners measure), so the CI gate trips on
real regressions rather than runner noise.  To see the gate trip on a
synthetic slowdown, compare a handicapped run against a fresh local
baseline::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_graph_core.py
    cp results/BENCH_graph_core.json /tmp/baseline.json
    REPRO_PERF_HANDICAP=0.25 PYTHONPATH=src python -m pytest -q \
        benchmarks/bench_graph_core.py
    python benchmarks/check_perf_regression.py \
        results/BENCH_graph_core.json /tmp/baseline.json  # exits 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

GATED_SUFFIXES = ("_speedup",)
CONTEXT_KEYS = ("sweep_rounds_nodes_per_s", "wall_s", "cache_hit_rate")


def _measured_cores(current: dict) -> int:
    """Cores of the box the current record was measured on."""
    topo = current.get("topology") or {}
    cores = topo.get("cpu_count")
    if isinstance(cores, int) and cores >= 1:
        return cores
    return os.cpu_count() or 1


def _required_cores(baseline: dict) -> int:
    """Core requirement for the baseline's parallelism-dependent floors."""
    topo = baseline.get("topology") or {}
    req = topo.get("min_cores", topo.get("cpu_count"))
    if isinstance(req, int) and req >= 1:
        return req
    return 1


def _measured_mem_gb(current: dict) -> float:
    """Physical memory of the box the current record was measured on."""
    topo = current.get("topology") or {}
    mem = topo.get("mem_gb")
    if isinstance(mem, (int, float)) and mem > 0:
        return float(mem)
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    except (ValueError, OSError, AttributeError):
        return 0.0


def _required_mem_gb(baseline: dict) -> float:
    """Memory requirement for the baseline's memory-dependent floors."""
    topo = baseline.get("topology") or {}
    req = topo.get("min_mem_gb")
    if isinstance(req, (int, float)) and req > 0:
        return float(req)
    return 0.0


def _announce_skip(name: str, measured, required, unit: str) -> None:
    msg = (
        f"perf gate: skipped {name} — measured on {measured} {unit}, "
        f"floor calibrated for >= {required}"
    )
    print(f"SKIP {name}: {measured} < {required} {unit}")
    if os.environ.get("GITHUB_ACTIONS"):
        # a visible annotation on the workflow run, not just a log line
        print(f"::warning title=perf gate skipped::{msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression before failing (default 0.15, "
        "i.e. the gate trips before a regression reaches 20%%)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="METRIC",
        help="gate only the named metric(s); repeatable",
    )
    args = parser.parse_args(argv)

    with open(args.current) as fh:
        current = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    cur_metrics = current.get("metrics", {})
    base_metrics = baseline.get("metrics", {})
    parallel_dependent = set(baseline.get("parallelism_dependent", []))
    memory_dependent = set(baseline.get("memory_dependent", []))
    floors = baseline.get("floors", {})
    measured = _measured_cores(current)
    required = _required_cores(baseline)
    measured_mem = _measured_mem_gb(current)
    required_mem = _required_mem_gb(baseline)
    only = set(args.only) if args.only else None

    def topology_skip(name: str) -> bool:
        if name in parallel_dependent and measured < required:
            _announce_skip(name, measured, required, "core(s)")
            return True
        if (
            name in memory_dependent
            and measured_mem
            and measured_mem < required_mem
        ):
            _announce_skip(name, measured_mem, required_mem, "GiB")
            return True
        return False

    failures = []
    checked = 0
    skipped = 0
    for name, base_val in sorted(base_metrics.items()):
        if not name.endswith(GATED_SUFFIXES):
            continue
        if only is not None and name not in only:
            continue
        if not isinstance(base_val, (int, float)) or base_val <= 0:
            continue
        if topology_skip(name):
            skipped += 1
            continue
        cur_val = cur_metrics.get(name)
        floor = (1.0 - args.tolerance) * base_val
        if not isinstance(cur_val, (int, float)):
            failures.append(f"{name}: missing from the current record")
            continue
        checked += 1
        status = "OK " if cur_val >= floor else "FAIL"
        print(
            f"{status} {name}: current={cur_val:.3f} baseline={base_val:.3f} "
            f"floor={floor:.3f}"
        )
        if cur_val < floor:
            failures.append(
                f"{name}: {cur_val:.3f} < {floor:.3f} "
                f"(baseline {base_val:.3f} - {args.tolerance:.0%})"
            )
    for name, floor in sorted(floors.items()):
        if only is not None and name not in only:
            continue
        if not isinstance(floor, (int, float)):
            continue
        if topology_skip(name):
            skipped += 1
            continue
        cur_val = cur_metrics.get(name)
        if not isinstance(cur_val, (int, float)):
            failures.append(f"{name}: missing from the current record")
            continue
        checked += 1
        status = "OK " if cur_val >= floor else "FAIL"
        print(
            f"{status} {name}: current={cur_val:.3f} "
            f"absolute floor={floor:.3f}"
        )
        if cur_val < floor:
            failures.append(f"{name}: {cur_val:.3f} < {floor:.3f} (absolute)")
    for key in CONTEXT_KEYS:
        if key in cur_metrics:
            print(f"info {key}: {cur_metrics[key]}")

    if not checked and not skipped and not failures:
        print("error: baseline contains no gated *_speedup metrics or floors")
        return 2
    if failures:
        print(f"\nperf regression gate FAILED ({len(failures)}):")
        for f in failures:
            print(f"  - {f}")
        return 1
    summary = f"perf regression gate passed ({checked} metric(s) checked"
    if skipped:
        summary += f", {skipped} skipped on topology"
    print(f"\n{summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
