"""E02 — Lemma 2.2(2): forests decomposition.

Claim: an O(a)-forests decomposition (specifically ≤ ⌊(2+ε)a⌋ forests) in
O(log n) rounds.  Sweep a at fixed n and n at fixed a; verify forest count
and that rounds track the H-partition's O(log n), independent of a.

Ported to the :mod:`repro.experiments` sweep engine: the workload is a
declarative spec, execution and verification live in the engine, and
``--trials``/``--seed`` (see conftest) override the replicate count and the
base seed without editing this file.

The verify stage is timed against the algorithm it checks:
``forests_verify_vs_run_speedup`` is the decomposition's time over
``check_forests_decomposition``'s on the same instance, gated in CI so the
check never again costs more than the decomposition.
"""

import time

import perf_record
from conftest import cached_forest_union, cached_planar, run_once
from repro import SynchronousNetwork
from repro.analysis import emit, render_table
from repro.core import forests_decomposition
from repro.experiments import ScenarioSpec, SweepSpec, run_sweep
from repro.graphs import forest_union
from repro.verify import check_forests_decomposition

N = 512
SWEEP_A = [2, 4, 8, 16]


def _spec(trials: int, base_seed: int, sweep_a=SWEEP_A) -> SweepSpec:
    return SweepSpec(
        "e02-forests",
        [
            ScenarioSpec(
                family="forest_union",
                family_params={"n": N, "a": a},
                algorithm="forests",
                algorithm_params={"a": a},
                # the historical instances used seed = a; --seed shifts them
                seeds=[base_seed + a + i for i in range(trials)],
            )
            for a in sweep_a
        ],
    )


def test_forest_count_linear_in_a(benchmark, sweep_trials, sweep_base_seed):
    result = run_sweep(_spec(sweep_trials, sweep_base_seed))
    perf_record.add_sweep_metrics("forests", result)
    rows = []
    rounds_seen = []
    for tr in result:
        a = tr.trial.family_params["a"]
        bound = int(2.5 * a)
        rows.append([a, tr.trial.seed, tr.metrics["num_forests"], bound,
                     tr.metrics["rounds"]])
        assert tr.metrics["num_forests"] <= bound
        assert tr.metrics["verified"]
        rounds_seen.append(tr.metrics["rounds"])
    emit(
        render_table(
            "E02 Lemma 2.2(2) — forests decomposition (n=512, eps=0.5)",
            ["a", "seed", "forests", "bound (2.5a)", "rounds"],
            rows,
            note="claim: O(a) forests in O(log n) rounds — rounds must not grow with a",
        ),
        "e02_forests.txt",
    )
    # round cost is orthogonal to a (it is the H-partition's log n)
    assert max(rounds_seen) - min(rounds_seen) <= 6
    # timed region = the algorithm alone on a prebuilt network, as before
    # the sweep-engine port (keeps benchmark history comparable)
    a = SWEEP_A[-1]
    _gen, net = cached_forest_union(N, a, seed=sweep_base_seed + a)
    run_once(benchmark, lambda: forests_decomposition(net, a))


def test_forests_on_planar(benchmark, sweep_base_seed):
    spec = SweepSpec(
        "e02b-planar",
        [
            ScenarioSpec(
                family="planar",
                family_params={"n": 400},
                algorithm="forests",
                algorithm_params={"a": 3},
                seeds=[sweep_base_seed + 2],
            )
        ],
    )
    result = run_sweep(spec)
    (tr,) = list(result)
    _gen, net = cached_planar(400, seed=sweep_base_seed + 2)
    run_once(benchmark, lambda: forests_decomposition(net, 3))
    emit(
        render_table(
            "E02b — planar triangulation (a<=3, n=400)",
            ["forests", "bound", "rounds"],
            [[tr.metrics["num_forests"], int(2.5 * 3), tr.metrics["rounds"]]],
        ),
        "e02_forests.txt",
    )
    assert tr.metrics["num_forests"] <= 7


def _best_of(k, fn):
    """The last result of ``fn`` and its best-of-``k`` wall time."""
    out, best = None, float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_forests_verify_vs_run(benchmark):
    """The check must not outgrow the decomposition it checks.

    Lemma 2.2(2) on ``forest_union(32000, 4, seed=4200)``, best of 3,
    against ``check_forests_decomposition`` of its result, best of 3.  The
    ratio is recorded as ``forests_verify_vs_run_speedup`` and gated
    against the committed baseline.
    """
    n, a = 32_000, 4
    graph = forest_union(n, a, seed=4200).graph
    net = SynchronousNetwork(graph)
    fd, run_s = _best_of(3, lambda: forests_decomposition(net, a))
    _, verify_s = _best_of(3, lambda: check_forests_decomposition(graph, fd))
    speedup = run_s / verify_s
    row = [n, a, fd.num_forests, f"{run_s:.3f}", f"{verify_s:.3f}", f"{speedup:.1f}x"]
    emit(
        render_table(
            "E02c — forests decomposition vs. its check, n = 3.2·10^4",
            ["n", "a", "forests", "run s", "verify s", "run / verify"],
            [row],
            note="forest_union(n, a, seed=4200); both best of 3",
        ),
        "e02_forests.txt",
    )
    perf_record.add_metrics(
        "forests",
        forests_verify_vs_run_speedup=round(speedup, 2),
        forests_run_s=round(run_s, 4),
        forests_verify_s=round(verify_s, 4),
    )
    # Acceptance: the check costs at most half the decomposition.
    assert speedup >= 2.0, (
        f"check_forests_decomposition takes {verify_s:.3f}s, over half of "
        f"the decomposition's {run_s:.3f}s"
    )
    run_once(benchmark, lambda: check_forests_decomposition(graph, fd))
