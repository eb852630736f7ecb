"""S6 (infrastructure) — staged sweep engine: shared GraphStore accounting
and the socket executor on loopback.

The workload is the execution shape the paper's pipeline calls for and the
staged engine exists for: an **ablation sweep** that varies only algorithm
parameters (the forests-decomposition ε knob) over the *same* graph
instances.  The family is ``erdos_renyi`` — its generator samples all
O(n²) vertex pairs and then certifies the arboricity bound by measuring
degeneracy, so instance construction dominates each trial and every build
the GraphStore saves is wall clock saved.

Two scenarios:

* ``test_shared_graphstore_accounting`` — few shared graphs, many cells,
  run serially and on a two-worker shared-memory pool.  Acceptance:
  identical records, and on both executors exactly one build per graph
  with every other trial a reuse (tighter than any timing ratio: a single
  lost reuse fails it).
* ``test_socket_loopback_speedup`` — the ablation sweep again, through a
  :class:`~repro.experiments.SocketExecutor` coordinator with two
  loopback ``repro worker`` processes: the wire protocol's overhead must
  not eat the parallelism (floor gated as ``parallelism_dependent``, on
  the median of alternating serial/socket pairs).

``REPRO_PERF_HANDICAP`` (a fraction, e.g. ``0.25``) synthetically inflates
the socket path's time so the regression gate can be watched tripping.
"""

from __future__ import annotations

import os
import statistics
import time

import perf_record
from repro.analysis import emit, render_table
from repro.experiments import SweepSpec, grid_scenarios, run_sweep

#: the ε ablation: one shared graph serves this many algorithm cells
EPSILONS = (0.2, 0.35, 0.5, 0.8, 1.2, 2.0)
N = 3000
SEEDS = (0, 1)

_HANDICAP = float(os.environ.get("REPRO_PERF_HANDICAP", "0") or 0.0)


def _spec() -> SweepSpec:
    # explicit seeds: scenario-derived seeds fold the algorithm cell into
    # their derivation, so only explicit seeds share graphs across cells
    return SweepSpec(
        "sweep-scale-ablation",
        grid_scenarios(
            families=[{"name": "erdos_renyi", "n": N, "p": 4.0 / N}],
            algorithms=[
                {"name": "forests", "epsilon": e} for e in EPSILONS
            ],
            seeds=list(SEEDS),
        ),
    )


def _timed_sweep(**kwargs):
    t0 = time.perf_counter()
    result = run_sweep(_spec(), **kwargs)
    return result, time.perf_counter() - t0


def test_shared_graphstore_accounting(benchmark):
    shared, shared_s = _timed_sweep()
    parallel, parallel_s = _timed_sweep(workers=2)

    # identical records, and the same exact accounting on both executors
    assert [(t.key, t.metrics) for t in shared] == [
        (t.key, t.metrics) for t in parallel
    ]
    for res in (shared, parallel):
        assert res.graph_builds == len(SEEDS)
        assert res.graph_reuses == res.num_trials - len(SEEDS)

    trials = shared.num_trials
    rows = [
        ["shared GraphStore (serial)", trials, shared.graph_builds,
         shared.graph_reuses, f"{shared_s:.2f}",
         f"{shared.graph_build_s:.2f}"],
        ["shared GraphStore (2 workers, shm)", trials,
         parallel.graph_builds, parallel.graph_reuses, f"{parallel_s:.2f}",
         f"{parallel.graph_build_s:.2f}"],
    ]
    emit(
        render_table(
            "S6 — staged sweep engine: build once, share everywhere",
            ["execution path", "trials", "graph builds", "graph reuses",
             "wall s", "build s"],
            rows,
            note=f"erdos_renyi(n={N}) x {len(EPSILONS)} forests-ε cells x "
            f"{len(SEEDS)} seeds; records byte-identical by assertion",
        ),
        "s6_sweep_scale.txt",
    )
    perf_record.add_metrics(
        "sweep_scale",
        shared_wall_s=round(shared_s, 4),
        parallel_shm_wall_s=round(parallel_s, 4),
        graph_builds=shared.graph_builds,
        graph_reuses=shared.graph_reuses,
        handicap=_HANDICAP,
    )

    benchmark.pedantic(
        lambda: run_sweep(_spec()), iterations=1, rounds=1
    )


# -- the socket executor on loopback: wire overhead must not eat the win ---

SOCKET_WORKERS = 2
#: serial/socket pairs behind the gate
SOCKET_REPEATS = 5


def test_socket_loopback_speedup(benchmark):
    """Acceptance: the socket backend with two loopback workers beats a
    serial run on the graph-build-dominated ablation shape — i.e. the
    wire protocol's pickle+base64 overhead and the coordinator's
    dispatch threads do not eat the parallelism they exist to buy.
    Records must be byte-identical, with the shared graphs pickled onto
    the wire (remote workers can never attach the coordinator's shm).

    The workers are spawned once.  Each of ``SOCKET_REPEATS`` repeats
    runs the serial and the socket sweep back to back, in an order that
    flips from one repeat to the next, so that both sides of a pair see
    the same machine state; the gated speedup is the median over repeats
    of serial time over socket time."""
    from repro.experiments import SocketExecutor, spawn_local_workers

    cores = os.cpu_count() or 1
    ex = SocketExecutor(min_workers=SOCKET_WORKERS)
    procs = spawn_local_workers(ex.host, ex.port, SOCKET_WORKERS)
    sides = {"serial": {}, "socket": {"executor": ex}}
    seconds = {side: [] for side in sides}
    records = {}
    try:
        ex.wait_for_workers(SOCKET_WORKERS, timeout=120)
        for repeat in range(SOCKET_REPEATS):
            for side in list(sides)[:: 1 if repeat % 2 == 0 else -1]:
                records[side], wall_s = _timed_sweep(**sides[side])
                seconds[side].append(wall_s)
        remote = benchmark.pedantic(
            lambda: run_sweep(_spec(), executor=ex), iterations=1, rounds=1
        )
    finally:
        ex.close()
        for p in procs:
            p.terminate()
        for p in procs:
            try:
                p.wait(timeout=10)
            except Exception:
                p.kill()

    serial = records["serial"]
    assert [(t.key, t.metrics) for t in remote] == [
        (t.key, t.metrics) for t in serial
    ]
    assert {t.graph_source for t in remote} == {"store"}
    assert remote.graph_builds == len(SEEDS)
    assert remote.graph_reuses == remote.num_trials - len(SEEDS)

    socket = [wall_s * (1.0 + _HANDICAP) for wall_s in seconds["socket"]]
    speedup = statistics.median(
        a / b for a, b in zip(seconds["serial"], socket, strict=True)
    )
    serial_s = statistics.median(seconds["serial"])
    socket_s = statistics.median(socket)
    trials = serial.num_trials
    rows = [
        ["serial (in-process)", trials, f"{serial_s:.2f}", "1.0x"],
        [f"socket loopback ({SOCKET_WORKERS} workers, pickle wire)",
         trials, f"{socket_s:.2f}", f"{speedup:.1f}x"],
    ]
    emit(
        render_table(
            "S6c — socket executor on loopback: distribution pays its way",
            ["execution path", "trials", "wall s", "speedup"],
            rows,
            note=f"erdos_renyi(n={N}) x {len(EPSILONS)} forests-ε cells x "
            f"{len(SEEDS)} seeds; coordinator + {SOCKET_WORKERS} "
            f"`repro worker` processes; medians of {SOCKET_REPEATS} alternating "
            "repeats, speedup = median of per-repeat serial/socket wall time; "
            "records byte-identical by assertion",
        ),
        "s6c_sweep_socket.txt",
    )
    perf_record.add_metrics(
        "sweep_scale",
        socket_loopback_vs_serial_speedup=round(speedup, 3),
        socket_wall_s=round(socket_s, 4),
        socket_serial_wall_s=round(serial_s, 4),
        socket_requeued=ex.requeued,
        socket_disconnects=ex.disconnects,
    )
    # Acceptance needs real cores: a single-CPU box time-slices the two
    # workers and the wire overhead makes loopback a strict loss there
    # (metrics still recorded; the CI gate runs on multi-core runners and
    # marks the floor parallelism_dependent).
    if _HANDICAP == 0.0 and cores >= 2:
        assert speedup >= 1.15, (
            f"socket loopback with {SOCKET_WORKERS} workers only "
            f"{speedup:.2f}x vs serial on the build-dominated ablation"
        )
