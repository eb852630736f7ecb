"""One fresh benchmark process: set up, run one workload batch, report.

``run.py`` starts this script once per sample, so every sample pays its
own interpreter start, imports, spec expansion, cache open and (on a pool)
pool start-up, the way a user's sweep does.  Usage::

    python3 perfbench/child.py CONFIG_JSON

``CONFIG_JSON`` holds ``workload``, ``seed``, ``mode`` and ``work`` (a
scratch directory inside the checkout; the report is written to
``work/report.json``).  ``mode`` is ``probe`` (stop as soon as the executor
asks for its first payload: one set-up sample), ``batch`` (the workload,
untraced) or ``traced`` (the workload with every layer traced).

The executor is built here and handed to ``run_sweep`` inside
:class:`TimedExecutor`, which times each payload from the moment the
executor asks for it to the moment its record arrives.  On the serial
path the runner builds a trial's graph while that payload is being pulled,
so the build is charged to the trial that paid for it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import repro  # noqa: E402
from repro.experiments import run_sweep  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.executors import (  # noqa: E402
    Executor,
    LocalPoolExecutor,
    SerialExecutor,
)
from repro.experiments.registry import BUILD_KIND  # noqa: E402
from repro.experiments.spec import TrialSpec  # noqa: E402
from repro.obs.topology import topology  # noqa: E402
import tracing  # noqa: E402  (installs nothing until tracing.install())
from workloads import WORKLOADS  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: largest tolerated |self-time sum / trial wall - 1| on one trial
ATTRIBUTION_TOLERANCE = 0.05


class SetupDone(Exception):
    """Ends a probe once the executor has asked for its first payload."""


def _ident(record_or_payload: dict, trial: TrialSpec | None = None):
    if record_or_payload.get("kind") == BUILD_KIND:
        return ("build", trial.graph_key() if trial else record_or_payload["graph_key"])
    return ("trial", trial.key() if trial else record_or_payload["key"])


class TimedExecutor(Executor):
    """Wraps the real executor and times what crosses the runner seam."""

    def __init__(self, inner: Executor, probe: bool = False):
        self.inner = inner
        self.name = inner.name
        self.supports_shm = inner.supports_shm
        self.locality = inner.locality
        self.probe = probe
        #: wall-clock time of the executor's first request for a payload
        self.first_request: float | None = None
        #: time the executor spent waiting on the runner's payload stream
        self.dispatch_wait_s = 0.0
        self.payloads = 0
        self.build_payloads = 0
        #: trial key -> seconds from payload request to record arrival
        self.trial_wall: dict = {}
        #: (ident, seconds from request to arrival, trace) per traced record
        self.traces: list = []
        self._requested: dict = {}
        # the pool pulls payloads on its task-handler thread
        self._lock = threading.Lock()

    def parallelism(self) -> int:
        return self.inner.parallelism()

    def close(self) -> None:
        self.inner.close()

    def _feed(self, payloads):
        upstream = iter(payloads)
        while True:
            t0 = perf_counter()
            if self.first_request is None:
                self.first_request = time.time()
                if self.probe:
                    return
            try:
                payload = next(upstream)
            except StopIteration:
                return
            waited = perf_counter() - t0
            ident = _ident(payload, TrialSpec.from_dict(payload["trial"]))
            with self._lock:
                self.dispatch_wait_s += waited
                self.payloads += 1
                self.build_payloads += ident[0] == "build"
                self._requested[ident] = t0
            yield payload

    def submit(self, payloads):
        for record in self.inner.submit(self._feed(payloads)):
            arrived = perf_counter()
            ident = _ident(record)
            with self._lock:
                wall = arrived - self._requested.pop(ident)
            trace = record.pop(tracing.TRACE_KEY, None)
            if ident[0] == "trial":
                self.trial_wall[ident[1]] = wall
            if trace is not None:
                self.traces.append((ident, wall, trace))
            yield record
        if self.probe:
            raise SetupDone


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(wl, timed, cold, cold_s, warm, warm_s, cache) -> dict:
    """Per-layer metrics of a traced batch (see README.md for each one)."""
    total, own, counts = Counter(), Counter(), Counter()
    worker_s = 0.0
    attributed = reference = 0.0
    worst = 0.0
    for ident, wall, trace in timed.traces:
        total.update(trace["total"])
        own.update(trace["self"])
        counts.update(trace["counts"])
        worker_s += trace["wall"]
        if ident[0] != "trial":
            continue
        # serial: the wall seen outside, from payload request to record
        # arrival; pool: the worker-side wall (arrival includes queueing).
        # Only layer spans count: time left in the stage wrappers' self
        # time (a core or simulator call that lost its wrapper) is as
        # unattributed as the runner's glue.
        ref = wall if wl.workers == 1 else trace["wall"]
        got = sum(v for k, v in trace["self"].items() if k not in tracing.GLUE_SPANS)
        attributed += got
        reference += ref
        worst = max(worst, abs(got / ref - 1.0))
    build_s = total["graphs.build"]
    m = {
        "runner.worker_util": worker_s / (wl.workers * cold_s),
        "runner.dispatch_wait_s": timed.dispatch_wait_s,
        "runner.payloads": timed.payloads,
        "runner.build_payloads": timed.build_payloads,
        "graphstore.builds": cold.graph_builds,
        "graphstore.reuses": cold.graph_reuses,
        "graphstore.build_s": cold.graph_build_s,
        "cache.puts": cache.puts,
        "cache.put_s": cache.put_s,
        "cache.replay_s": warm_s,
        "cache.hit_rate": warm.hit_rate,
        "stage.build_graph_s": total["stage.build_graph"],
        "stage.run_algorithm_s": total["stage.run_algorithm"],
        "stage.verify_s": total["stage.verify"],
        "stage.metrics_s": total["stage.metrics"],
        "graphs.build_s": build_s,
        "graphs.edges_per_s": counts["graphs.edges"] / build_s if build_s else 0.0,
        "graphs.csr_bytes": counts["graphs.csr_bytes"],
    }
    with open(MANIFEST, encoding="utf-8") as fh:
        names = [layer["name"] for layer in json.load(fh)["per_layer"]]
    for name in names:
        if name.startswith("sim."):
            m[name] = counts[name]
        elif name.startswith("core.") and name != "core.self_s":
            m[name] = own[name[: -len("_s")]]
    m["core.self_s"] = sum(v for k, v in own.items() if k.startswith("core."))
    m["verify.s"] = total["verify"]
    m["trace.attributed_share"] = attributed / reference if reference else 0.0
    m["trace.attribution_error"] = worst
    return m


def run(cfg: dict) -> dict:
    wl = WORKLOADS[cfg["workload"]]
    mode = cfg["mode"]
    traced = mode == "traced"
    spec = wl.spec(int(cfg["seed"]))
    if traced:
        tracing.install()
        tracing.TRACER.reset()
    cache_cls = tracing.TracedCache if traced else ResultCache
    cache_dir = os.path.join(cfg["work"], "cache")
    cache = cache_cls(cache_dir)
    inner = LocalPoolExecutor(wl.workers) if wl.workers > 1 else SerialExecutor()
    timed = TimedExecutor(inner, probe=mode == "probe")
    report: dict = {"errors": [], "attempted": len(spec.trials())}
    try:
        t0 = perf_counter()
        cold = run_sweep(spec, cache=cache, executor=timed)
        cold_s = perf_counter() - t0
        # the same spec again, from the cache the cold pass just wrote
        t0 = perf_counter()
        warm = run_sweep(spec, cache=cache_cls(cache_dir), executor=timed)
        warm_s = perf_counter() - t0
    except SetupDone:
        return {"first_request": timed.first_request}
    except Exception:  # a failed sweep is a result, reported as such
        report["errors"].append(traceback.format_exc())
        report["first_request"] = timed.first_request
        report["completed"] = len(timed.trial_wall)
        return report
    finally:
        timed.close()
    report.update(
        first_request=timed.first_request,
        completed=len(cold.results),
        wall_s=cold_s + warm_s,
        peak_rss_mb=peak_rss_mb(),
        trials=[
            {
                "label": c.trial.label(),
                "algorithm": c.trial.algorithm,
                "n": c.trial.family_params["n"],
                # under a pool, arrival times include queueing behind the
                # other worker, so the record's own elapsed_s stands in
                "wall": timed.trial_wall[c.key] if wl.workers == 1 else c.elapsed_s,
                "metrics": c.metrics,
                "replayed": w.cached and w.metrics == c.metrics,
            }
            for c, w in zip(cold.results, warm.results, strict=True)
        ],
        env={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "topology": topology(),
        },
    )
    if traced:
        report["layers"] = layer_metrics(wl, timed, cold, cold_s, warm, warm_s, cache)
        # checked on the serial workload, whose trials are long enough for
        # the runner's glue to stay far below the tolerance
        report["attribution_ok"] = (
            wl.workers > 1
            or report["layers"]["trace.attribution_error"] <= ATTRIBUTION_TOLERANCE
        )
    return report


def main(argv) -> int:
    cfg = json.loads(argv[1])
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"child: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    report = run(cfg)
    with open(os.path.join(cfg["work"], "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
