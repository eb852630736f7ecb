"""Shared helpers for the benchmark harness.

Every bench module regenerates one of the paper's experiments E01–E14 or
an ablation (README, *Substitutions and ablations*): it runs the
algorithm(s), prints a paper-bound vs. measured table (also appended
under ``results/``), asserts the *shape* of the claim (who wins, how the
quantity scales), and reports wall time through pytest-benchmark.

Simulations are deterministic, so each benchmark executes its workload
once (``pedantic`` mode) — the interesting measurements are rounds and
colors, not nanoseconds.
"""

from __future__ import annotations

import functools
import os

import perf_record
import pytest

from repro import SynchronousNetwork
from repro.graphs import forest_union, low_arboricity_high_degree, planar_triangulation


def pytest_runtest_logreport(report):
    """Time every bench test into its module's ``BENCH_<name>.json``."""
    if report.when != "call":
        return
    base = os.path.basename(str(getattr(report, "fspath", "") or ""))
    if base.startswith("bench_") and base.endswith(".py"):
        perf_record.note_test(base[len("bench_") : -3], report.nodeid, report.duration)


def pytest_sessionfinish(session, exitstatus):
    """Write one machine-readable perf record per bench module."""
    perf_record.flush()


def pytest_addoption(parser):
    """Benchmark-wide overrides replacing the old hard-coded constants."""
    parser.addoption(
        "--trials", type=int, default=1,
        help="replicates (seeds) per benchmark configuration",
    )
    parser.addoption(
        "--seed", type=int, default=0,
        help="base seed added to every benchmark's per-config seeds",
    )


@pytest.fixture
def sweep_trials(request) -> int:
    """Replicates per configuration (``--trials``, default 1)."""
    return request.config.getoption("--trials", default=1)


@pytest.fixture
def sweep_base_seed(request) -> int:
    """Base seed offset for every configuration (``--seed``, default 0)."""
    return request.config.getoption("--seed", default=0)


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


@functools.lru_cache(maxsize=64)
def cached_forest_union(n: int, a: int, seed: int = 0):
    """Deterministic forest-union instance + its network, cached across
    benches within a session."""
    gen = forest_union(n, a, seed=seed)
    return gen, SynchronousNetwork(gen.graph)


@functools.lru_cache(maxsize=16)
def cached_planar(n: int, seed: int = 0):
    gen = planar_triangulation(n, seed=seed)
    return gen, SynchronousNetwork(gen.graph)


@functools.lru_cache(maxsize=16)
def cached_sparse_high_degree(n: int, a: int, hubs: int, seed: int = 0):
    gen = low_arboricity_high_degree(n, a=a, num_hubs=hubs, seed=seed)
    return gen, SynchronousNetwork(gen.graph)
