"""S2 (supplementary) — CONGEST-style message-size accounting.

The paper works in the LOCAL model (unbounded messages), but its
algorithms are naturally frugal: every message is a color, a level, or a
small tuple.  This bench traces every message of each core algorithm and
reports the maximum payload — all logarithmic in n, i.e. the algorithms
run unchanged in CONGEST.
"""


from conftest import cached_forest_union, run_once
from repro.analysis import emit, render_table
from repro.core import (
    compute_hpartition,
    forests_decomposition,
    kuhn_defective_coloring,
    legal_coloring,
    linial_coloring,
    luby_mis,
    partial_orientation,
)
from repro.simulator import MessageTrace

N = 400
A = 8


def _trace(net, runner):
    trace = MessageTrace()
    original_run = net.run

    def run_traced(*args, **kwargs):
        kwargs.setdefault("telemetry", trace)
        return original_run(*args, **kwargs)

    net.run = run_traced
    try:
        runner()
    finally:
        net.run = original_run
    return trace


def test_message_sizes(benchmark):
    gen, net = cached_forest_union(N, A, seed=1800)
    algorithms = [
        ("H-partition", lambda: compute_hpartition(net, A)),
        ("forests decomposition", lambda: forests_decomposition(net, A)),
        ("Linial", lambda: linial_coloring(net)),
        ("Kuhn defective (p=2)", lambda: kuhn_defective_coloring(net, 2)),
        ("Partial-Orientation (t=2)", lambda: partial_orientation(net, A, t=2)),
        ("Legal-Coloring (p=4)", lambda: legal_coloring(net, A, p=4)),
        ("Luby MIS", lambda: luby_mis(net, seed=1)),
    ]
    rows = []
    for name, runner in algorithms:
        trace = _trace(net, runner)
        rows.append(
            [name, len(trace), trace.max_size,
             f"{trace.total_bytes / max(1, len(trace)):.1f}"]
        )
        assert trace.max_size <= 32  # O(log n) bits at n=400
    emit(
        render_table(
            f"S2 — message sizes across the stack (n={N}, a={A})",
            ["algorithm", "messages", "max bytes", "mean bytes"],
            rows,
            note="LOCAL-model algorithms, but every payload is O(log n) "
            "bits — they run unchanged in CONGEST",
        ),
        "s2_message_sizes.txt",
    )
    run_once(benchmark, lambda: _trace(net, lambda: compute_hpartition(net, A)))
