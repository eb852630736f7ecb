"""E03 — Lemma 3.3: Procedure Complete-Orientation.

Claim: complete acyclic orientation with out-degree ⌊(2+ε)a⌋ and length
O(a log n).  Sweep a at fixed n: the measured length must grow ~linearly
with a (the log n factor fixed), and the out-degree bound must hold
exactly.

The checks are timed against the procedure they check:
``complete_orientation_verify_vs_run_speedup`` is the procedure's time
over that of the four checks above on its result, gated in CI so the
checks never again cost more than the orientation.
"""

import time

import perf_record
from conftest import cached_forest_union, run_once
from repro import SynchronousNetwork
from repro.analysis import (
    complete_orientation_length_bound,
    emit,
    fit_loglog_slope,
    render_table,
)
from repro.core import complete_orientation
from repro.graphs import forest_union
from repro.types import Orientation
from repro.verify import (
    check_orientation_acyclic,
    check_orientation_complete,
    orientation_length,
    orientation_max_out_degree,
)

N = 512
SWEEP_A = [2, 4, 8, 16]


def _measure(a):
    gen, net = cached_forest_union(N, a, seed=a + 100)
    co = complete_orientation(net, a)
    check_orientation_acyclic(gen.graph, co)
    check_orientation_complete(gen.graph, co)
    return gen, co


def test_length_linear_in_a(benchmark):
    rows = []
    lengths = []
    for a in SWEEP_A:
        gen, co = _measure(a)
        length = orientation_length(gen.graph, co)
        out = orientation_max_out_degree(gen.graph, co)
        bound = complete_orientation_length_bound(a, N, 0.5)
        rows.append([a, out, int(2.5 * a), length, f"{bound:.0f}", co.rounds])
        lengths.append(length)
        assert out <= int(2.5 * a)
        assert length <= 3 * bound
    emit(
        render_table(
            "E03 Lemma 3.3 — Complete-Orientation (n=512, eps=0.5)",
            ["a", "out-deg", "bound", "length", "len bound (2.5a+1)log n", "rounds"],
            rows,
            note="claim: length O(a log n) — length must grow with a",
        ),
        "e03_complete_orientation.txt",
    )
    # length grows with a: log-log slope positive and near-linear-ish
    slope = fit_loglog_slope([float(a) for a in SWEEP_A], [float(x) for x in lengths])
    assert 0.3 <= slope <= 1.6
    run_once(benchmark, lambda: _measure(SWEEP_A[-1]))


def _best_of(k, fn):
    """The last result of ``fn`` and its best-of-``k`` wall time."""
    out, best = None, float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _check(graph, heads):
    """The four checks of this bench on a fresh orientation of ``heads``
    (nothing derived from an earlier check is reused); returns the
    length and the out-degree."""
    orientation = Orientation(graph, heads)
    check_orientation_acyclic(graph, orientation)
    check_orientation_complete(graph, orientation)
    return (
        orientation_length(graph, orientation),
        orientation_max_out_degree(graph, orientation),
    )


def test_complete_orientation_verify_vs_run(benchmark):
    """The checks must not outgrow the orientation they check.

    Lemma 3.3 on ``forest_union(32000, 4, seed=4200)`` (the forests
    gate's instance), best of 3, against the four checks of its result,
    best of 3.  The ratio is recorded as
    ``complete_orientation_verify_vs_run_speedup`` and gated against the
    committed baseline.
    """
    n, a = 32_000, 4
    graph = forest_union(n, a, seed=4200).graph
    net = SynchronousNetwork(graph)
    co, run_s = _best_of(3, lambda: complete_orientation(net, a))
    (length, out), verify_s = _best_of(3, lambda: _check(graph, co.heads))
    speedup = run_s / verify_s
    row = [n, a, length, out, f"{run_s:.3f}", f"{verify_s:.4f}", f"{speedup:.1f}x"]
    emit(
        render_table(
            "E03b — Complete-Orientation vs. its checks, n = 3.2·10^4",
            ["n", "a", "length", "out-deg", "run s", "verify s", "run / verify"],
            [row],
            note="forest_union(n, a, seed=4200); both best of 3; the checks are "
            "acyclic, complete, length and max out-degree",
        ),
        "e03_complete_orientation.txt",
    )
    perf_record.add_metrics(
        "complete_orientation",
        complete_orientation_verify_vs_run_speedup=round(speedup, 2),
        complete_orientation_run_s=round(run_s, 4),
        complete_orientation_verify_s=round(verify_s, 4),
    )
    # Acceptance: the checks cost at most half the orientation.
    assert speedup >= 2.0, (
        f"the orientation checks take {verify_s:.3f}s, over half of "
        f"complete_orientation's {run_s:.3f}s"
    )
    run_once(benchmark, lambda: _check(graph, co.heads))
