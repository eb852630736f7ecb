"""S4 (infrastructure) — simulator engine throughput: dense vs. event vs. column.

The simulator substrate executes every benchmark and sweep in this repo, so
its throughput bounds everything else.  This bench measures effective
**rounds·nodes/s** (how many node-rounds of the synchronous model each
engine retires per second) for the dense reference scheduler and the
event-driven fast path on three activity profiles:

* *sweep* — a greedy color reduction with an n-color palette: one color
  class (≈1 node) acts per round while everyone else waits for its turn —
  the extreme sparse-activity case, and the shape of the paper's
  color-class sweeps and stall phases;
* *stall* — the §1.2 MIS pipeline, whose coloring recursion and class
  sweep mix short bursts of activity with long quiescent stretches;
* *flood* — Luby coloring, where nearly every node acts in every round —
  the dense-activity case the fast path must not regress.

Acceptance: both engines produce identical results, and the event engine
is ≥2× faster on the sparse-activity sweep (in practice it is 10–100×;
the flood rows document that dense-activity throughput stays comparable).

A second test guards the telemetry spine's overhead contract: the
instrumented scheduler with telemetry *disabled* must stay within 3% of
``legacy_network.LegacySynchronousNetwork``, a frozen copy of the
scheduler from before the telemetry hooks existed (the same A/B idiom as
``legacy_graph`` for the CSR core).  The two sides run back to back in
every repeat, and the gate reads the median of the per-repeat ratios.

A third test runs the column engine at the scale the per-node engines
cannot reach: the H-partition peel on a million-node forest union (built
with the numpy bulk generator, no Python edge objects).  Acceptance:
byte-identical to the event engine and ≥10× faster on the structured-core
workload (observed: 100–300×; the committed baseline floor is gated in
CI, skipped visibly on low-memory boxes).

A fourth test measures the column engine end to end on a flagship
algorithm: Corollary 4.6 at n = 3.2·10^4, where every simulator run is a
subset run.  Acceptance: the same colouring as the event engine and ≥3×
faster (observed: about 7×; the committed baseline floor is gated in CI).
"""

from __future__ import annotations

import statistics
import time

import perf_record
import pytest
from conftest import cached_forest_union
from legacy_network import LegacySynchronousNetwork
from repro import SynchronousNetwork
from repro.analysis import emit, render_table
from repro.core import greedy_reduction, luby_coloring, mis_arboricity
from repro.obs import RoundTelemetry

A = 3
#: paired legacy/current repeats behind the telemetry overhead gate
TELEMETRY_REPEATS = 15


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _throughput(rounds: int, n: int, seconds: float) -> float:
    return rounds * n / max(seconds, 1e-9)


def _run_workload(name, graph, workload):
    """Run one workload under both schedulers; return a table row."""
    n = graph.n
    dense_out, dense_s = _timed(
        lambda: workload(SynchronousNetwork(graph, scheduler="dense"))
    )
    event_out, event_s = _timed(
        lambda: workload(SynchronousNetwork(graph, scheduler="event"))
    )
    assert dense_out == event_out, f"{name}: scheduler results diverge"
    rounds = dense_out.rounds
    return [
        name,
        n,
        rounds,
        f"{_throughput(rounds, n, dense_s) / 1e3:.0f}",
        f"{_throughput(rounds, n, event_s) / 1e3:.0f}",
        f"{dense_s / event_s:.1f}x",
    ], dense_s, event_s


def test_simulator_throughput(benchmark):
    rows = []
    sweep_speedups = []
    for n in (400, 900):
        gen, _ = cached_forest_union(n, A, seed=3100 + n)
        graph = gen.graph
        target = graph.max_degree + 1
        sweep = lambda net, g=graph, t=target: greedy_reduction(
            net, {v: v for v in g.vertices}, g.n, t
        )
        row, dense_s, event_s = _run_workload(f"sweep (m={n})", graph, sweep)
        rows.append(row)
        sweep_speedups.append(dense_s / event_s)

        row, _, _ = _run_workload(
            f"stall (MIS §1.2)", graph, lambda net: mis_arboricity(net, A)
        )
        rows.append(row)

        row, _, _ = _run_workload(
            "flood (Luby)", graph, lambda net: luby_coloring(net, seed=4)
        )
        rows.append(row)

    emit(
        render_table(
            "S4 — scheduler throughput: dense reference vs. event fast path",
            ["workload", "n", "rounds", "dense kRN/s", "event kRN/s", "speedup"],
            rows,
            note="kRN/s = thousand rounds·nodes of the synchronous model "
            "retired per second; results are byte-identical by assertion",
        ),
        "s4_simulator_throughput.txt",
    )
    perf_record.add_metrics(
        "simulator_throughput",
        event_vs_dense_sweep_speedup=round(min(sweep_speedups), 3),
        sweep_rows=[
            {"workload": r[0], "n": r[1], "rounds": r[2],
             "dense_krn_per_s": r[3], "event_krn_per_s": r[4]}
            for r in rows
        ],
    )
    # Acceptance: ≥2× on every sparse-activity sweep size (observed: 4–100×).
    assert min(sweep_speedups) >= 2.0, (
        f"event scheduler speedup {min(sweep_speedups):.2f}x < 2x on the "
        "sparse-activity sweep"
    )

    gen, _ = cached_forest_union(900, A, seed=4000)
    target = gen.graph.max_degree + 1
    benchmark.pedantic(
        lambda: greedy_reduction(
            SynchronousNetwork(gen.graph),
            {v: v for v in gen.graph.vertices},
            gen.graph.n,
            target,
        ),
        iterations=1,
        rounds=1,
    )


def _best_of(k, fn):
    """Best-of-k wall time: the min filters out scheduler hiccups."""
    out, best = None, None
    for _ in range(k):
        out, seconds = _timed(fn)
        best = seconds if best is None else min(best, seconds)
    return out, best


def test_column_engine_scale(benchmark):
    """Column vs. event at n = 10^6: the vectorized engine's reason to exist.

    The workload is the structured core of the paper's pipeline — the
    H-partition peel (Lemma 2.3) — on a million-node arboricity-3 forest
    union.  The event engine executes it one node activation at a time
    (~10^6 NodeContext objects, dict inboxes); the column engine executes
    whole rounds as numpy array passes over the shared CSR.  Both must
    produce byte-identical RunResults; the speedup is recorded as
    ``column_vs_event_speedup`` and gated against the committed baseline.
    """
    pytest.importorskip("numpy")
    from repro.core.hpartition import HPartitionProgram, degree_threshold
    from repro.graphs import forest_union_bulk

    n = 1_000_000
    gen, gen_s = _timed(lambda: forest_union_bulk(n, A, seed=4100))
    graph = gen.graph
    threshold = degree_threshold(A, 0.5)

    def peel(engine):
        return SynchronousNetwork(graph, scheduler=engine).run(
            lambda: HPartitionProgram(threshold)
        )

    col_out, col_s = _best_of(3, lambda: peel("column"))
    event_out, event_s = _timed(lambda: peel("event"))  # once: ~10^2 s
    assert col_out == event_out, "column and event results diverge"
    speedup = event_s / col_s
    rounds = col_out.rounds
    emit(
        render_table(
            "S4 — column engine at scale: H-partition peel, n = 10^6",
            ["engine", "n", "rounds", "wall s", "MRN/s"],
            [
                ["event", n, rounds, f"{event_s:.2f}",
                 f"{_throughput(rounds, n, event_s) / 1e6:.1f}"],
                ["column", n, rounds, f"{col_s:.2f}",
                 f"{_throughput(rounds, n, col_s) / 1e6:.1f}"],
            ],
            note=f"bulk graph build {gen_s:.2f}s (numpy, m={graph.m}); "
            f"column speedup {speedup:.0f}x; results byte-identical "
            "by assertion",
        ),
        "s4_column_engine_scale.txt",
    )
    perf_record.add_metrics(
        "simulator_throughput",
        column_vs_event_speedup=round(speedup, 1),
        column_rounds_nodes_per_s=round(_throughput(rounds, n, col_s)),
        column_scale_n=n,
    )
    # Acceptance: ≥10× over the event engine at n = 10^6 (observed 100–300×).
    assert speedup >= 10.0, (
        f"column engine speedup {speedup:.1f}x < 10x at n={n}"
    )
    benchmark.pedantic(lambda: peel("column"), iterations=1, rounds=1)


def test_cor46_column_vs_event(benchmark):
    """Column vs. event end to end: Corollary 4.6 at n = 3.2·10^4.

    The peel above is one program; this is a whole flagship algorithm —
    H-partition, arbdefective recursion, and Lemma 2.2(1)'s Linial +
    Kuhn–Wattenhofer colouring of every H-level — where every simulator
    run is a ``participants``/``part_of`` subset run and every program has
    a column kernel.  Both engines must give the same colouring; the
    speedup is recorded as ``cor46_column_vs_event_speedup`` and gated
    against the committed baseline.
    """
    from repro.core import legal_coloring_corollary46
    from repro.graphs import forest_union

    n, a = 32_000, 4
    graph = forest_union(n, a, seed=4200).graph

    def cor46(engine):
        net = SynchronousNetwork(graph, scheduler=engine)
        return legal_coloring_corollary46(net, a, eta=0.5)

    col_out, col_s = _best_of(3, lambda: cor46("column"))
    event_out, event_s = _timed(lambda: cor46("event"))
    assert col_out == event_out, "column and event colourings diverge"
    speedup = event_s / col_s
    emit(
        render_table(
            "S4 — column engine end to end: Corollary 4.6, n = 3.2·10^4",
            ["engine", "n", "a", "rounds", "colors", "wall s"],
            [
                ["event", n, a, event_out.rounds, event_out.num_colors,
                 f"{event_s:.2f}"],
                ["column", n, a, col_out.rounds, col_out.num_colors,
                 f"{col_s:.2f}"],
            ],
            note=f"forest_union(n, a, seed=4200); column best of 3, event "
            f"once; column speedup {speedup:.1f}x; colourings identical by "
            "assertion",
        ),
        "s4_cor46_column_vs_event.txt",
    )
    perf_record.add_metrics(
        "simulator_throughput",
        cor46_column_vs_event_speedup=round(speedup, 2),
    )
    # Acceptance: ≥3× over the event engine end to end.
    assert speedup >= 3.0, (
        f"column engine speedup {speedup:.2f}x < 3x on cor46 at n={n}"
    )
    benchmark.pedantic(lambda: cor46("column"), iterations=1, rounds=1)


def _with_telemetry(net, tel):
    """Attach a telemetry sink to every ``run`` of a network instance."""
    orig = net.run

    def run(*args, **kwargs):
        kwargs.setdefault("telemetry", tel)
        return orig(*args, **kwargs)

    net.run = run
    return net


def test_telemetry_overhead(benchmark):
    """Telemetry-disabled scheduler within 3% of the pre-telemetry copy.

    A/B against ``LegacySynchronousNetwork`` (frozen before the telemetry
    hooks landed) on the sparse-sweep and dense-flood workloads.  Both
    workloads first run once on the frozen copy's dense mode and on the
    live dense engine, whose results must be equal.  Each of
    ``TELEMETRY_REPEATS`` repeats runs every workload once per side, the
    sides back to back in an order that flips from one repeat to the next,
    so that both sides of a pair see the same machine state.  The gated
    ratio is the median over repeats of legacy time over current time with
    telemetry off (both summed over the workloads).  Also records the
    enabled/disabled ratio, paired the same way, for context (never gated).
    """
    gen, _ = cached_forest_union(400, A, seed=3500)
    graph = gen.graph
    target = graph.max_degree + 1
    workloads = {
        "sweep": lambda net: greedy_reduction(
            net, {v: v for v in graph.vertices}, graph.n, target
        ),
        "flood": lambda net: luby_coloring(net, seed=4),
    }
    networks = {
        "legacy": lambda: LegacySynchronousNetwork(graph, scheduler="event"),
        "disabled": lambda: SynchronousNetwork(graph, scheduler="event"),
        "enabled": lambda: _with_telemetry(
            SynchronousNetwork(graph, scheduler="event"), RoundTelemetry()
        ),
    }
    # The dense reference against the frozen copy's, which shares no code
    # with it; once, outside the timed repeats.
    for name, workload in workloads.items():
        legacy = workload(LegacySynchronousNetwork(graph, scheduler="dense"))
        assert legacy == workload(SynchronousNetwork(graph, scheduler="dense")), (
            f"{name}: the dense engine diverges from the frozen copy"
        )
    # seconds[side][workload]: one time per repeat
    seconds = {side: {name: [] for name in workloads} for side in networks}
    for repeat in range(TELEMETRY_REPEATS):
        order = list(networks)[:: 1 if repeat % 2 == 0 else -1]
        for name, workload in workloads.items():
            outputs = []
            for side in order:
                t0 = time.perf_counter()
                outputs.append(workload(networks[side]()))
                seconds[side][name].append(time.perf_counter() - t0)
            assert all(out == outputs[0] for out in outputs), (
                f"{name}: instrumented scheduler diverges from the frozen copy"
            )

    def paired_ratio(num, den, names=tuple(workloads)):
        """Median over repeats of ``num``'s time over ``den``'s."""
        totals = [
            list(map(sum, zip(*(seconds[side][n] for n in names), strict=True)))
            for side in (num, den)
        ]
        return statistics.median(a / b for a, b in zip(*totals, strict=True))

    rows = [
        [
            name,
            graph.n,
            *(
                f"{1e3 * statistics.median(seconds[side][name]):.1f}"
                for side in networks
            ),
            f"{paired_ratio('legacy', 'disabled', (name,)):.3f}x",
        ]
        for name in workloads
    ]
    disabled_ratio = paired_ratio("legacy", "disabled")
    enabled_ratio = paired_ratio("disabled", "enabled")
    emit(
        render_table(
            "S4 — telemetry overhead: frozen pre-telemetry scheduler vs. current",
            ["workload", "n", "legacy ms", "disabled ms", "enabled ms", "ratio"],
            rows,
            note=f"medians of {TELEMETRY_REPEATS} alternating repeats; ratio = "
            "median of per-repeat legacy/disabled wall time; the disabled path "
            "must stay within 3% of the frozen copy (floor 0.97)",
        ),
        "s4_telemetry_overhead.txt",
    )
    perf_record.add_metrics(
        "simulator_throughput",
        telemetry_disabled_vs_legacy_speedup=round(disabled_ratio, 3),
        telemetry_enabled_vs_disabled_ratio=round(enabled_ratio, 3),
    )
    # Acceptance: instrumented-but-disabled within 3% of pre-instrumentation.
    assert disabled_ratio >= 0.97, (
        f"telemetry-disabled scheduler at {disabled_ratio:.3f}x of the frozen "
        "pre-telemetry copy (floor 0.97)"
    )

    benchmark.pedantic(
        lambda: luby_coloring(SynchronousNetwork(graph), seed=4),
        iterations=1,
        rounds=1,
    )
