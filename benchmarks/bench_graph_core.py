"""S5 (infrastructure) — graph core: CSR fast path vs. the seed implementation.

PR 3 rewrote :class:`repro.graphs.Graph` around a flat CSR layout (two
read-only int64 numpy offset/neighbour arrays, O(1) degree, index-based
rows, vectorized batched-neighbour passes) with a bulk
:meth:`Graph.from_edge_count` constructor, and threaded index-based fast
paths through the simulator and the centralized helpers.  This bench pins
the two headline claims against the preserved seed implementation
(``legacy_graph``: the exact pre-CSR graph *and* simulator loop):

* *build* — constructing a forest-union instance from a raw edge list is
  ≥3× faster than the legacy per-edge set-mutation build, with the public
  id-based API (vertices / edges / neighbors / degree) byte-identical;
* *sparse sweep* — one end-to-end sweep trial (build → H-partition →
  verify → per-level induced subgraphs → greedy MIS → verify) is ≥2×
  faster, with identical outputs at every step.

``REPRO_PERF_HANDICAP`` (a fraction, e.g. ``0.25``) synthetically inflates
the measured CSR wall times; it exists so the CI regression gate
(``check_perf_regression.py``) can be shown to trip on a 25% slowdown
without hurting the real library.  The in-test speedup assertions are
skipped while a handicap is active — tripping the gate is then the point.
"""

from __future__ import annotations

import os
import random
import time

import perf_record
from conftest import run_once
from legacy_graph import LegacyGraph, LegacySynchronousNetwork
from repro import SynchronousNetwork
from repro.analysis import emit, render_table
from repro.core import compute_hpartition
from repro.core.mis import greedy_mis_sequential
from repro.graphs.graph import Graph
from repro.types import canonical_edge
from repro.verify.decomposition import check_hpartition, check_mis

A = 4

_HANDICAP = float(os.environ.get("REPRO_PERF_HANDICAP", "0") or 0.0)


def _forest_edges(n, a, seed):
    """The raw edge list of a forest union, exactly as the generator emits it
    (duplicates included) — both builds consume the identical input."""
    rng = random.Random(seed)
    edges = []
    for _ in range(a):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(1, n):
            edges.append(canonical_edge(perm[i], perm[rng.randrange(i)]))
    return edges


def _best_of(fn, repeats=3):
    """Best-of-N wall time (and the last result, for output comparison)."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _seed_greedy_mis(graph):
    """The seed-era centralized greedy MIS (id-keyed sets)."""
    members, blocked = set(), set()
    for v in graph.vertices:
        if v not in blocked:
            members.add(v)
            blocked.update(graph.neighbors(v))
    return members


def _seed_induced(graph, keep):
    """The seed-era induced subgraph: edge-list filter + dict rebuild."""
    keep = set(keep)
    edges = [(u, v) for (u, v) in graph.edges if u in keep and v in keep]
    return LegacyGraph(keep, edges)


def _levels_of(hp):
    out = {}
    for v, i in hp.index.items():
        out.setdefault(i, []).append(v)
    return out


def _sweep_trial(n, edges, legacy):
    """One end-to-end sweep trial: build → decompose → verify → baseline.

    The legacy variant uses the seed graph, the seed simulator loop, and
    the seed centralized helpers; the CSR variant uses the current library.
    ``check_hpartition``/``check_mis`` dispatch internally (vectorized for
    CSR graphs, the generic loop for the legacy graph).
    """
    if legacy:
        g = LegacyGraph(range(n), edges)
        net = LegacySynchronousNetwork(g)
    else:
        g = Graph.from_edge_count(n, edges)
        net = SynchronousNetwork(g)
    hp = compute_hpartition(net, A)
    check_hpartition(g, hp)
    level_degrees = []
    for _lvl, vs in sorted(_levels_of(hp).items()):
        sub = _seed_induced(g, vs) if legacy else g.induced_subgraph(vs)
        level_degrees.append(sub.max_degree)
        assert sub.max_degree <= hp.degree_bound
    mis = _seed_greedy_mis(g) if legacy else greedy_mis_sequential(g)
    check_mis(g, mis)
    return hp.index, level_degrees, mis, hp.rounds


def test_graph_core_construction_and_sweep(benchmark):
    rows = []
    build_speedups = []
    # interpreter/allocator warmup so the first timed build is not penalized
    warm = _forest_edges(2000, A, seed=11)
    LegacyGraph(range(2000), warm)
    Graph.from_edge_count(2000, warm)
    for n in (50_000, 80_000):
        edges = _forest_edges(n, A, seed=5000 + n)
        legacy, t_leg = _best_of(lambda n=n, edges=edges: LegacyGraph(range(n), edges))
        csr, t_csr = _best_of(lambda n=n, edges=edges: Graph.from_edge_count(n, edges))
        t_csr *= 1.0 + _HANDICAP
        # byte-compatibility of the public id-based API
        assert csr.vertices == legacy.vertices
        assert csr.edges == legacy.edges
        step = max(1, n // 97)
        assert all(
            csr.neighbors(v) == legacy.neighbors(v)
            and csr.degree(v) == legacy.degree(v)
            for v in range(0, n, step)
        )
        build_speedups.append(t_leg / t_csr)
        rows.append(
            [
                f"build (n={n})",
                n,
                legacy.m,
                f"{t_leg * 1e3:.0f} ms",
                f"{t_csr * 1e3:.0f} ms",
                f"{t_leg / t_csr:.1f}x",
            ]
        )

    sweep_speedups = []
    sweep_tput = 0.0
    for n in (40_000,):
        edges = _forest_edges(n, A, seed=7000 + n)
        out_leg, t_leg = _best_of(
            lambda n=n, edges=edges: _sweep_trial(n, edges, legacy=True)
        )
        out_csr, t_csr = _best_of(
            lambda n=n, edges=edges: _sweep_trial(n, edges, legacy=False)
        )
        t_csr *= 1.0 + _HANDICAP
        assert out_leg == out_csr, "sweep trial diverged between builds"
        rounds = out_csr[3]
        sweep_speedups.append(t_leg / t_csr)
        sweep_tput = rounds * n / max(t_csr, 1e-9)
        rows.append(
            [
                f"sweep trial (n={n})",
                n,
                rounds,
                f"{t_leg * 1e3:.0f} ms",
                f"{t_csr * 1e3:.0f} ms",
                f"{t_leg / t_csr:.1f}x",
            ]
        )

    emit(
        render_table(
            "S5 — graph core: seed implementation vs. CSR fast path",
            ["workload", "n", "m/rounds", "seed", "CSR", "speedup"],
            rows,
            note="build = graph construction from a raw edge list; sweep "
            "trial = build + H-partition + verify + per-level induced "
            "subgraphs + greedy MIS + verify, outputs asserted identical",
        ),
        "s5_graph_core.txt",
    )
    perf_record.add_metrics(
        "graph_core",
        construction_speedup=round(min(build_speedups), 3),
        sparse_sweep_speedup=round(min(sweep_speedups), 3),
        sweep_rounds_nodes_per_s=round(sweep_tput, 1),
        handicap=_HANDICAP,
    )
    if _HANDICAP == 0.0:
        assert min(build_speedups) >= 3.0, (
            f"CSR construction speedup {min(build_speedups):.2f}x < 3x"
        )
        assert min(sweep_speedups) >= 2.0, (
            f"end-to-end sparse-sweep speedup {min(sweep_speedups):.2f}x < 2x"
        )

    edges = _forest_edges(20_000, A, seed=1)
    run_once(benchmark, lambda: Graph.from_edge_count(20_000, edges))
