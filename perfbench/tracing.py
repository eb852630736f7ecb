"""Layer tracing for the benchmark's traced run.

Every span is recorded from the benchmark's side of a layer boundary:
timing wrappers installed on the public entry points of ``repro.core``, on
the trial stages and graph generators the registry calls, on the
``repro.verify`` checkers, a ``SynchronousNetwork`` subclass handed to the
algorithms, a ``ResultCache`` subclass and a wrapper on the executors'
payload entry point, ``execute_payload``.  The program's own executors run
unchanged; nothing under ``src/`` is edited.

Spans nest.  A span's *self* time is its duration minus the spans opened
inside it, so the self times of one payload add up to its outermost spans.
Accumulators live in one per-process :data:`TRACER`; each payload's share
is taken when the payload finishes and rides back to the parent inside the
record (under :data:`TRACE_KEY`, removed before the runner sees it).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

from repro import SynchronousNetwork
from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.obs.telemetry import Telemetry

#: record key carrying one payload's trace back to the parent
TRACE_KEY = "_perfbench_trace"

#: ``repro.core`` entry points named by the per-layer metrics; every other
#: public core function is traced as ``core.<function name>``
CORE_SPANS = {
    "arbdefective_coloring": "core.arbdefective",
    "partial_orientation": "core.partial_orientation",
    "simple_arbdefective": "core.simple_arbdefective",
    "color_parts_legally": "core.color_parts",
    "complete_orientation": "core.complete_orientation",
    "orientation_greedy_coloring": "core.orientation_greedy",
    "compute_hpartition": "core.hpartition",
    "run_recoloring": "core.recoloring",
    "kuhn_wattenhofer_reduction": "core.kw_reduction",
    "greedy_reduction": "core.greedy_reduction",
    "mis_from_coloring": "core.mis_sweep",
    "forests_decomposition": "core.forests",
    # Algorithm 2's recursion loop and its parameterisations share one
    # name: their self time is the recursion's own label bookkeeping
    "legal_coloring": "core.legal_coloring",
    "legal_coloring_theorem43": "core.legal_coloring",
    "legal_coloring_corollary46": "core.legal_coloring",
}

#: registry-level functions whose spans are the trial stages
STAGE_SPANS = {
    "build_instance": "stage.build_graph",
    "_verify_result": "stage.verify",
    "_result_metrics": "stage.metrics",
}

#: stage spans that exist to wrap other layers: their self time is glue
#: that no layer claims, so the attribution check counts it as unattributed
GLUE_SPANS = ("stage.build_graph", "stage.run_algorithm", "stage.verify")

#: the checkers the verify stage calls
VERIFY_FUNCS = ("check_legal_coloring", "check_forests_decomposition", "check_mis")


class Tracer:
    """Nested span clock: inclusive and self seconds, plus counters."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: time spent in child spans, one entry per open span
        self._stack: List[float] = []

    def open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def close(self, name: str, t0: float) -> None:
        dur = perf_counter() - t0
        children = self._stack.pop()
        self.total[name] += dur
        self.self_s[name] += dur - children
        if self._stack:
            self._stack[-1] += dur

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, t0)

        return traced

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def take(self) -> Dict[str, Dict[str, float]]:
        """Everything accumulated since the last take, then reset."""
        out = {
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
        }
        self.reset()
        return out

    def reset(self) -> None:
        self.total.clear()
        self.self_s.clear()
        self.counts.clear()
        self._stack.clear()


#: the process's tracer; forked pool workers inherit it with the wrappers
TRACER = Tracer()


class _RunSink(Telemetry):
    """Marks the end of a run's set-up and counts activations."""

    __slots__ = ("started", "engine", "activations")

    def __init__(self) -> None:
        self.started = 0.0
        self.engine = ""
        self.activations = 0

    def on_run_start(self, n: int, scheduler: str) -> None:
        self.started = perf_counter()
        self.engine = scheduler

    def on_round(self, round_number, active, messages, message_bytes,
                 woke, idled) -> None:
        self.activations += active


class TracedNetwork(SynchronousNetwork):
    """Times every simulator run, split at the engine's ``on_run_start``."""

    def run(self, program_factory, **kwargs):
        requested = kwargs.get("scheduler") or self.scheduler
        subset = (
            kwargs.get("participants") is not None
            or kwargs.get("part_of") is not None
        )
        sink = _RunSink()
        if kwargs.get("telemetry") is None:
            kwargs["telemetry"] = sink
        t0 = TRACER.open()
        try:
            result = super().run(program_factory, **kwargs)
        finally:
            TRACER.close("sim.run", t0)
        end = perf_counter()
        started = sink.started or end
        count = TRACER.count
        count("sim.setup_s", started - t0)
        count("sim.loop_s", end - started)
        count("sim.runs")
        count("sim.subset_runs", subset)
        count("sim.rounds", result.rounds)
        count("sim.messages", result.messages)
        count("sim.activations", sink.activations)
        count(f"sim.engine_runs.{sink.engine or 'unobserved'}")
        count("sim.fallback_runs", requested == "column" and sink.engine != "column")
        return result


def _csr_bytes(graph) -> int:
    return sum(view.nbytes for view in graph.csr())


def _traced_generator(fn: Callable) -> Callable:
    timed = TRACER.wrap("graphs.build", fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        gen = timed(*args, **kwargs)
        TRACER.count("graphs.edges", gen.graph.m)
        TRACER.count("graphs.csr_bytes", _csr_bytes(gen.graph))
        return gen

    return counted


def _traced_payload(execute_payload: Callable) -> Callable:
    """The executors' payload entry point, plus this payload's trace.

    Keeps ``execute_payload``'s name and module, so a pool pickles it by
    reference and forked workers resolve it to this wrapper.
    """

    @functools.wraps(execute_payload)
    def traced(payload):
        t0 = perf_counter()
        record = execute_payload(payload)
        trace = TRACER.take()
        trace["wall"] = perf_counter() - t0
        record[TRACE_KEY] = trace
        return record

    return traced


def install() -> None:
    """Install every wrapper in this process (before any pool forks).

    A function imported with ``from .x import f`` is a separate binding in
    every importing module, so each wrapper replaces the original object
    wherever a loaded ``repro`` module binds it.  That includes the
    executors' ``execute_payload``: the program's serial and pool executors
    run as they are and call the traced entry point.
    """
    import repro.core
    import repro.experiments.executors  # noqa: F401  (binds execute_payload)
    import repro.graphs

    replace: Dict[int, Callable] = {
        id(registry.execute_payload): _traced_payload(registry.execute_payload)
    }
    for name in repro.core.__all__:
        fn = getattr(repro.core, name)
        if callable(fn) and not isinstance(fn, type):
            replace[id(fn)] = TRACER.wrap(CORE_SPANS.get(name, f"core.{name}"), fn)
    for name, span in STAGE_SPANS.items():
        fn = getattr(registry, name)
        replace[id(fn)] = TRACER.wrap(span, fn)
    for name in VERIFY_FUNCS:
        fn = getattr(registry, name)
        replace[id(fn)] = TRACER.wrap("verify", fn)
    # the family builders call these generators through registry globals
    for name in dir(repro.graphs):
        fn = getattr(repro.graphs, name)
        if (
            callable(fn)
            and not isinstance(fn, type)
            and getattr(registry, name, None) is fn
        ):
            replace[id(fn)] = _traced_generator(fn)

    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None and value is getattr(wrapper, "__wrapped__", None):
                setattr(module, attr, wrapper)

    for name, spec in list(registry.ALGORITHMS.items()):
        registry.ALGORITHMS[name] = dataclasses.replace(
            spec, run=TRACER.wrap("stage.run_algorithm", spec.run)
        )
    registry.SynchronousNetwork = TracedNetwork


class TracedCache(ResultCache):
    """Counts and times the runner's streaming appends."""

    def __init__(self, path: str):
        super().__init__(path)
        self.puts = 0
        self.put_s = 0.0

    def put(self, record: dict) -> None:
        t0 = perf_counter()
        try:
            super().put(record)
        finally:
            self.put_s += perf_counter() - t0
            self.puts += 1
