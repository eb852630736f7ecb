"""The staged sweep runner: cache probe, shared-graph build payloads,
streaming fan-out, streaming persistence.

Execution plan for one sweep:

1. expand the :class:`~repro.experiments.spec.SweepSpec` into trials;
2. probe the :class:`~repro.experiments.cache.ResultCache` once per unique
   trial key — hits are served instantly, and a trial the spec lists twice
   is probed (and computed) once;
3. schedule every *shared* graph instance (trials of an ablation sweep that
   vary only algorithm parameters share one build) as a **build payload**
   on the same executor as the trials: the executor builds the graph and
   hands it back — a shared-memory segment under a parent-chosen name, or
   the graph object itself — and the parent's
   :class:`~repro.experiments.graphstore.GraphStore` adopts the result and
   releases that graph's trials the moment it lands.  Graphs only one
   trial uses are built by whoever runs that trial, so unshared
   construction keeps the executor's parallelism;
4. fan the work out through an :class:`~.executors.base.Executor` — the
   transport seam this module schedules *onto*, never into.  The default
   is :class:`~.executors.local.LocalPoolExecutor` (one persistent
   ``multiprocessing`` pool, ``imap_unordered``) for ``workers > 1`` and
   :class:`~.executors.local.SerialExecutor` otherwise;
   :class:`~.executors.socket.SocketExecutor` fans the same payloads out
   to workers on other hosts.  Every backend is fed by the same **lazy
   generator**: build payloads first, then unshared trials, then each
   sharing trial as its graph becomes ready.  A pool or socket backend
   runs the builds alongside the trials; the serial backend simply runs
   each build inline, ahead of the trials that use it.  Nothing
   materialises the whole sweep up front, so at any moment the parent
   holds only the graphs whose trials are still ahead of it.  Backends
   whose workers cannot map this host's shared memory (``supports_shm``
   False — remote workers, and the serial backend, which needs no copy at
   all) get the graph objects themselves;
5. persist every fresh record **as it arrives** (single writer — the
   parent; the workers never touch the cache), so a crashed or interrupted
   sweep resumes from every trial that finished, and return everything in
   spec order.

Determinism: trial seeds are fixed by the spec, algorithm randomness is
derived from the trial key, the shared graph a worker attaches is
byte-identical to the one a rebuild would produce, and results are
reordered to spec order after the unordered parallel collection — so a
sweep's aggregate output is byte-identical whether it ran serial, parallel,
via shared memory, via pickled graph objects, over sockets to another
host, or entirely from cache.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..errors import InvalidParameterError
from .cache import ResultCache
from .executors import (
    Executor,
    LocalPoolExecutor,
    SerialExecutor,
    make_executor,
)
from .graphstore import GraphStore
from .registry import BUILD_KIND
from .spec import SweepSpec, TrialSpec, graph_multiplicity

__all__ = ["TrialResult", "SweepResult", "run_sweep", "default_workers"]

#: environment override for the default worker cap (see default_workers)
WORKERS_ENV = "REPRO_WORKERS"


@dataclass
class TrialResult:
    """One trial's outcome: its spec, verified metrics, and provenance."""

    trial: TrialSpec
    metrics: Dict[str, object]
    cached: bool
    elapsed_s: float = 0.0
    #: per-stage wall times (build_graph/run_algorithm/verify/metrics);
    #: empty for records written before the staged engine
    stages: Dict[str, float] = field(default_factory=dict)
    #: where the graph came from: built (by the executor, for its own
    #: trial) / store (a shared graph object) / shm (a shared segment) /
    #: "" (pre-staged record)
    graph_source: str = ""
    #: serialized RoundLedger phase breakdown for composite algorithms
    #: (list of PhaseRecord dicts; empty when the algorithm reports none).
    #: Deterministic — unlike stages/graph_source — but kept outside
    #: metrics; rehydrate with ``RoundLedger.from_dicts``.
    phases: List[Dict[str, object]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.trial.key()


@dataclass
class SweepResult:
    """All trial results of a sweep plus cache and build accounting."""

    name: str
    results: List[TrialResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    #: unique shared graphs the GraphStore adopted from build payloads
    #: (the accounting is executor- and transport-independent)
    graph_builds: int = 0
    #: trials that reused a graph another consumer already materialised
    graph_reuses: int = 0
    #: name of the execution backend that ran the pending trials
    #: ("serial"/"pool"/"socket"; "" when everything came from cache)
    executor: str = ""
    #: wall seconds spent inside the family builders for shared graphs
    graph_build_s: float = 0.0

    @property
    def num_trials(self) -> int:
        return len(self.results)

    @property
    def hit_rate(self) -> float:
        """Fraction of *unique* trial keys served from the cache.

        ``cache_hits``/``cache_misses`` count unique keys, not trial
        occurrences: a sweep listing the same trial twice computes (or
        fetches) it once, so it contributes once here.  0.0 when empty.
        """
        unique = self.cache_hits + self.cache_misses
        return self.cache_hits / unique if unique else 0.0

    def __iter__(self):
        return iter(self.results)


def default_workers() -> int:
    """Worker count when the caller does not pin one: all cores, capped.

    The cap defaults to 8 and is overridable via ``REPRO_WORKERS`` (useful
    on many-core machines where the sweep should use more of the box, or in
    CI where it should use less).
    """
    cap = 8
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidParameterError(
                f"{WORKERS_ENV} must be an integer >= 1, got {env!r}"
            ) from None
        if cap < 1:
            raise InvalidParameterError(
                f"{WORKERS_ENV} must be an integer >= 1, got {env!r}"
            )
    return max(1, min(os.cpu_count() or 1, cap))


def _segment_name(nonce: str, index: int) -> str:
    """A short, collision-safe shared-memory segment name.

    Parent-chosen *before* the build is dispatched, so the parent can
    reclaim the segment even when the worker's result never arrives.
    Kept short because some platforms cap POSIX shm names at ~30 chars.
    """
    return f"rg{os.getpid():x}-{nonce}-{index:x}"


def _resolve_executor(
    executor: Union[None, str, Executor],
    workers: int,
    pending_count: int,
) -> "tuple[Executor, bool]":
    """Turn ``run_sweep``'s ``executor`` argument into a live backend.

    Returns ``(backend, owned)`` — ``owned`` backends were constructed
    here and are closed by the runner; caller-supplied instances stay
    open (a socket coordinator's worker fleet outlives one sweep).

    ``None`` keeps the engine's historical behaviour exactly: in-process
    serial execution unless both ``workers > 1`` and more than one trial
    is pending, in which case one local pool sized ``min(workers,
    pending)``.
    """
    if executor is None:
        if workers > 1 and pending_count > 1:
            return LocalPoolExecutor(min(workers, pending_count)), True
        return SerialExecutor(), True
    if isinstance(executor, str):
        return make_executor(executor, workers=max(workers, 1)), True
    if isinstance(executor, Executor):
        return executor, False
    raise InvalidParameterError(
        f"run_sweep: executor must be None, a name, or an Executor "
        f"instance, got {type(executor).__name__}"
    )


def _schedule(
    pending: List[TrialSpec],
    store: GraphStore,
    executor: Executor,
    absorb: Callable[[dict], None],
    say: Callable[[str], None],
    name: str,
    tracer=None,
) -> None:
    """The one scheduler: shared-graph builds go out as payloads and the
    trials stream lazily behind them, on whatever executor runs the sweep.
    """
    multiplicity = graph_multiplicity(pending)
    sharing: Dict[str, List[TrialSpec]] = {}
    solo: List[TrialSpec] = []
    for t in pending:
        gkey = t.graph_key()
        if multiplicity[gkey] > 1:
            sharing.setdefault(gkey, []).append(t)
        else:
            solo.append(t)
    build_order = list(sharing)

    seg_names: Dict[str, str] = {}
    if build_order:
        transport = "shared memory" if store.use_shm else "payload objects"
        say(f"{name}: {len(build_order)} shared graph build(s) dispatched to "
            f"the {executor.name} executor, graphs handed out via {transport}")
        if store.use_shm:
            nonce = uuid.uuid4().hex[:6]
            for i, gkey in enumerate(build_order):
                seg_names[gkey] = _segment_name(nonce, i)
                store.expect_segment(gkey, seg_names[gkey])

    #: graph keys whose graphs the parent holds, ready to mint payloads
    ready: "queue.Queue[str]" = queue.Queue()
    abort = threading.Event()

    parallelism = executor.parallelism()
    if tracer is not None:
        tracer.emit(
            "pool",
            "start",
            size=min(parallelism, len(pending)),
            executor=executor.name,
            shared_graphs=len(build_order),
            solo_trials=len(solo),
        )
    # backpressure: at most this many builds dispatched beyond the ones
    # whose trials have been streamed.  Enough to keep every worker busy,
    # but a fast backend can never pile more than ``window + 1``
    # undispatched graphs into the parent (the no-shm memory bound the
    # lazy stream exists for) — without it, tiny builds returning faster
    # than trials dispatch would accumulate every shared graph at once.
    window = parallelism + 2

    def _build_payload(gkey):
        return {
            "kind": BUILD_KIND,
            "trial": sharing[gkey][0].to_dict(),
            "shm_name": seg_names.get(gkey),
        }

    def stream():
        """The lazy payload feed every executor consumes.

        A priming window of builds goes out first so the executor starts
        them immediately; unshared trials fill the remaining workers while
        builds are in flight; each sharing trial is yielded the moment its
        graph is ready — and its graph's in-process copy is dropped with
        its last payload, with one more build dispatched in its place.
        Runs on the executor's dispatcher thread (the pool's task-handler
        thread, the socket coordinator's dispatch loop, or the caller's
        own thread for the serial backend, which has absorbed every build
        it ran before it asks for the next payload).
        """
        dispatched = 0
        while dispatched < min(window, len(build_order)):
            yield _build_payload(build_order[dispatched])
            dispatched += 1
        for t in solo:
            yield {"trial": t.to_dict(), "graph": None}
        served = 0
        while served < len(build_order):
            # never block without a timeout: pool teardown joins this
            # generator's thread, so an abandoned wait would deadlock the
            # exception path
            if abort.is_set():
                return
            try:
                gkey = ready.get(timeout=0.05)
            except queue.Empty:
                continue
            served += 1
            for t in sharing[gkey]:
                yield {"trial": t.to_dict(), "graph": store.mint(gkey)}
            store.discard(gkey)
            if dispatched < len(build_order):
                yield _build_payload(build_order[dispatched])
                dispatched += 1

    it = executor.submit(stream())
    try:
        for rec in it:
            if rec.get("kind") == BUILD_KIND:
                gkey = rec["graph_key"]
                if rec.get("shm_name"):
                    store.adopt_segment(
                        gkey,
                        rec["shm_name"],
                        name=rec["name"],
                        arboricity_bound=rec["arboricity_bound"],
                        params=rec["params"],
                        build_s=rec["build_s"],
                    )
                else:
                    store.adopt_graph(gkey, rec["graph"], build_s=rec["build_s"])
                ready.put(gkey)
            else:
                absorb(rec)
    finally:
        # unblock the dispatcher thread *before* closing the iterator:
        # backend teardown (Pool.__exit__, the socket dispatch loop) joins
        # the thread consuming ``stream()``, so an abandoned ``ready``
        # wait would deadlock the exception path
        abort.set()
        it.close()


def run_sweep(
    spec: SweepSpec,
    cache: Optional[ResultCache] = None,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    use_shm: Optional[bool] = None,
    trace=None,
    executor: Union[None, str, Executor] = None,
) -> SweepResult:
    """Run every trial of ``spec``, reusing ``cache`` when given.

    Parameters
    ----------
    workers:
        Pool size for cache misses.  ``1`` runs in-process (no pool at
        all — the mode tests and benchmarks use); ``n > 1`` streams trials
        through one persistent ``multiprocessing.Pool``.  Anything below 1
        is an error — never a silent fall-through to serial.  Ignored when
        ``executor`` names or supplies a non-pool backend.
    progress:
        Optional callback receiving one human-readable line per event
        (used by the CLI for ``-v``-style output).
    use_shm:
        Force shared-memory graph publishing on (``True``) or off
        (``False`` — the pickle fallback); default auto-detects and honours
        ``REPRO_NO_SHM``.  Irrelevant for serial runs, which hand the graph
        object straight to the executor.
    trace:
        Optional JSONL trace destination: a path (opened in append mode)
        or an open :class:`~repro.obs.trace.TraceWriter`.  The parent —
        the sweep's single writer — emits structured spans for every
        stage, GraphStore lifecycle event, cache probe, and pool
        dispatch; see :mod:`repro.obs.trace` for the schema and
        ``repro report trace`` for the summarizer.  ``None`` (default)
        emits nothing.
    executor:
        The execution backend for cache misses.  ``None`` (default) keeps
        the engine's historical behaviour: serial in-process execution,
        or one local ``multiprocessing`` pool when ``workers > 1`` and
        more than one trial is pending.  A name from
        :data:`~.executors.EXECUTOR_NAMES` constructs (and closes) that
        backend; a live :class:`~.executors.base.Executor` instance is
        used as-is and left open, so one socket coordinator's worker
        fleet can serve many sweeps.  Backends without ``supports_shm``
        (remote workers, the serial backend) get graph objects instead of
        shared-memory segments.
        Records are byte-identical whichever backend runs the trials.
    """
    if not isinstance(workers, int) or workers < 1:
        raise InvalidParameterError(
            f"run_sweep: workers must be an integer >= 1, got {workers!r}"
        )
    tracer = None
    own_tracer = False
    if trace is not None:
        from ..obs.trace import TraceWriter

        if isinstance(trace, TraceWriter):
            tracer = trace
        else:
            tracer = TraceWriter(os.fspath(trace))
            own_tracer = True
    try:
        return _run_sweep_traced(
            spec, cache, workers, progress, use_shm, tracer, executor,
        )
    finally:
        if own_tracer:
            tracer.close()


def _run_sweep_traced(
    spec: SweepSpec,
    cache: Optional[ResultCache],
    workers: int,
    progress: Optional[Callable[[str], None]],
    use_shm: Optional[bool],
    tracer,
    executor: Union[None, str, Executor] = None,
) -> SweepResult:
    t0 = time.perf_counter()
    trials = spec.trials()
    say = progress or (lambda _msg: None)

    if tracer is not None:
        from ..obs.topology import topology

        requested = (
            executor if isinstance(executor, str)
            else executor.name if isinstance(executor, Executor)
            else "auto"
        )
        tracer.emit(
            "sweep",
            "start",
            sweep=spec.name,
            trials=len(trials),
            workers=workers,
            executor=requested,
            topology=topology(),
        )

    if len(trials) > 1 and spec.graph_multiplicity() <= 1:
        # scenario-derived seeds fold the algorithm cell into the graph
        # seed, so e.g. num_seeds ablations never share a graph: a sweep
        # meant to reuse its graphs across algorithm cells needs explicit
        # seeds
        say(f"{spec.name}: warning: no two trials share a graph (every "
            f"trial derives a distinct graph seed) — graph sharing will "
            f"not save any builds")

    records: Dict[str, dict] = {}
    cached_keys = set()
    pending: List[TrialSpec] = []
    # one cache probe per *unique* key: duplicate occurrences of a trial
    # must not inflate the cache object's hit/miss counters (SweepResult
    # counts unique keys, and cache.stats() must agree with it)
    probed = set()
    for trial in trials:
        key = trial.key()
        if key in probed:
            continue
        probed.add(key)
        rec = cache.get(key) if cache is not None else None
        if tracer is not None:
            tracer.emit(
                "cache",
                "hit" if rec is not None else "miss",
                key=key[:12],
                trial=trial.label(),
            )
        if rec is not None:
            records[key] = rec
            cached_keys.add(key)
        else:
            pending.append(trial)

    graph_builds = 0
    graph_reuses = 0
    graph_build_s = 0.0
    executor_name = ""
    if pending:
        say(f"{spec.name}: computing {len(pending)} trial(s), "
            f"{len(cached_keys)} cached")
        backend, owned = _resolve_executor(executor, workers, len(pending))
        executor_name = backend.name
        on_event = None
        if tracer is not None:
            # The store lives in the parent (workers only attach), so its
            # lifecycle events keep the single-writer invariant for free.
            def on_event(event: str, **fields) -> None:
                tracer.emit("graphstore", event, **fields)

        # remote workers can never attach this host's shm segments, and
        # the serial backend takes graph objects by reference: any backend
        # without shm support gets the graph objects themselves
        store = GraphStore(
            use_shm=use_shm if backend.supports_shm else False,
            on_event=on_event,
        )

        done = 0

        def absorb(rec: dict) -> None:
            nonlocal done
            records[rec["key"]] = rec
            # streaming persistence: one atomic append per completed
            # trial, so an interrupted sweep keeps everything finished
            if cache is not None:
                cache.put(rec)
            if tracer is not None:
                # Worker-side stage timings are re-emitted here, in the
                # parent, so the trace file keeps a single writer.
                label = TrialSpec.from_dict(rec["trial"]).label()
                prov = rec.get("provenance", {})
                pid = prov.get("pid")
                worker = prov.get("worker")
                for stage, dur in rec.get("stages", {}).items():
                    tracer.emit(
                        "stage", "span", name=stage, dur_s=dur,
                        trial=label, pid=pid, worker=worker,
                        executor=backend.name,
                    )
                tracer.emit(
                    "trial",
                    "complete",
                    trial=label,
                    key=rec["key"][:12],
                    elapsed_s=rec.get("elapsed_s"),
                    graph_source=prov.get("graph_source", ""),
                    pid=pid,
                    worker=worker,
                    executor=backend.name,
                )
            done += 1
            if progress is not None:  # label/format only when watched
                progress(f"{spec.name}: [{done}/{len(pending)}] "
                         f"{TrialSpec.from_dict(rec['trial']).label()} "
                         f"({rec['elapsed_s']:.2f}s)")

        try:
            _schedule(pending, store, backend, absorb, say, spec.name, tracer)
            graph_builds = store.builds
            graph_reuses = store.reuses
            graph_build_s = store.build_s
        finally:
            store.close()
            if owned:
                backend.close()
    else:
        say(f"{spec.name}: all {len(trials)} trial(s) served from cache")

    results = []
    for trial in trials:
        rec = records[trial.key()]
        results.append(
            TrialResult(
                trial=trial,
                metrics=dict(rec["metrics"]),
                cached=trial.key() in cached_keys,
                elapsed_s=float(rec.get("elapsed_s", 0.0)),
                stages=dict(rec.get("stages", {})),
                graph_source=str(
                    rec.get("provenance", {}).get("graph_source", "")
                ),
                phases=[dict(p) for p in rec.get("phases", [])],
            )
        )
    # Hit/miss accounting is per unique key: a duplicated trial is computed
    # once, so counting each occurrence would overstate the misses and skew
    # the hit rate.
    sweep_result = SweepResult(
        name=spec.name,
        results=results,
        cache_hits=len(cached_keys),
        cache_misses=len(pending),
        wall_s=time.perf_counter() - t0,
        graph_builds=graph_builds,
        graph_reuses=graph_reuses,
        graph_build_s=round(graph_build_s, 6),
        executor=executor_name,
    )
    if tracer is not None:
        tracer.emit(
            "sweep",
            "end",
            sweep=spec.name,
            trials=sweep_result.num_trials,
            workers=workers,
            executor=executor_name,
            cache_hits=sweep_result.cache_hits,
            cache_misses=sweep_result.cache_misses,
            graph_builds=sweep_result.graph_builds,
            graph_reuses=sweep_result.graph_reuses,
            graph_build_s=sweep_result.graph_build_s,
            wall_s=round(sweep_result.wall_s, 6),
        )
    return sweep_result
