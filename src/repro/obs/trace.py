"""Structured JSONL sweep tracing: writer, reader, and summarizer.

``repro sweep --trace <path>`` threads a :class:`TraceWriter` through
:func:`~repro.experiments.runner.run_sweep`; the sweep's single-writer
parent process emits one JSON object per line for every observable event:

* ``{"kind": "sweep", "event": "start"|"end", ...}`` — sweep boundaries,
  with trial counts, worker settings and the host :func:`topology
  <repro.obs.topology.topology>` block on ``start`` and the accounting
  totals on ``end``;
* ``{"kind": "cache", "event": "hit"|"miss", "trial": ..., "key": ...}``
  — one per unique trial probed against the :class:`ResultCache`;
* ``{"kind": "graphstore", "event": "expect"|"adopt"|"evict"|"close",
  "graph": ...}`` — GraphStore lifecycle;
* ``{"kind": "stage", "event": "span", "name": "build_graph"|
  "run_algorithm"|"verify"|"metrics", "dur_s": ..., "trial": ...,
  "pid": ..., "worker": ..., "executor": ...}`` — one span per executed
  stage of every fresh trial, tagged with the executor backend and the
  executor-assigned worker id where there is one (socket workers; pid
  otherwise).  Worker stage timings are re-emitted by the parent when
  the record is absorbed, preserving the single-writer invariant;
* ``{"kind": "trial", "event": "complete", ...}`` — one per fresh trial;
* ``{"kind": "pool", "event": "start", "size": ...}`` — payload dispatch
  onto the executor (any backend, serial included).

Every line carries ``schema`` (currently 1) and ``t``, seconds since the
writer was opened.  The file is opened in append mode so successive
sweeps accumulate; :func:`summarize_trace` and ``repro report trace``
aggregate any number of sweeps per file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List

from ..analysis.tables import render_table

#: Version stamp written on every trace line.
TRACE_SCHEMA = 1


class TraceWriter:
    """Append-only JSONL event writer (thread-safe, single process).

    Only the sweep's parent process writes; a lock serialises the two
    parent threads that can emit concurrently (the result-absorbing main
    thread and the executor's payload-streaming dispatcher thread).
    """

    def __init__(self, path: str):
        self.path = str(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self.emitted = 0

    def emit(self, kind: str, event: str, **fields: Any) -> None:
        """Write one event line; ``fields`` must be JSON-serializable."""
        rec = {
            "schema": TRACE_SCHEMA,
            "kind": kind,
            "event": event,
            "t": round(time.perf_counter() - self._t0, 6),
        }
        rec.update(fields)
        line = json.dumps(rec, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a trace file, skipping blank or corrupt lines."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict):
                events.append(rec)
    return events


def summarize_trace(path: str) -> Dict[str, Any]:
    """Aggregate a trace file into a nested summary dict.

    Returns ``{"events", "sweeps", "stages", "cache", "graphstore",
    "workers"}`` where ``stages`` maps stage name to count/total/mean
    seconds and ``workers`` maps a worker identity to trials completed
    and busy seconds (utilization = busy time / sweep wall time).  The
    identity is the executor-assigned worker id when spans carry one
    (socket workers: ``w1``, ``w2``, …) and the worker pid otherwise —
    pids from different hosts could collide, worker ids never do.
    """
    events = read_trace(path)
    sweeps: List[Dict[str, Any]] = []
    stages: Dict[str, Dict[str, float]] = {}
    cache = {"hit": 0, "miss": 0}
    graphstore: Dict[str, int] = {}
    workers: Dict[Any, Dict[str, float]] = {}
    for ev in events:
        kind = ev.get("kind")
        event = ev.get("event")
        if kind == "sweep":
            if event == "start":
                sweeps.append({"sweep": ev.get("sweep"), "start_t": ev.get("t")})
            elif event == "end" and sweeps:
                sweeps[-1].update(
                    {
                        k: v
                        for k, v in ev.items()
                        if k not in ("schema", "kind", "event", "t")
                    }
                )
        elif kind == "cache":
            if event in cache:
                cache[event] += 1
        elif kind == "graphstore":
            graphstore[event] = graphstore.get(event, 0) + 1
        elif kind == "stage":
            name = ev.get("name", "?")
            dur = float(ev.get("dur_s") or 0.0)
            s = stages.setdefault(name, {"count": 0, "total_s": 0.0})
            s["count"] += 1
            s["total_s"] += dur
            who = ev.get("worker") or ev.get("pid")
            if who is not None:
                w = workers.setdefault(who, {"trials": 0, "busy_s": 0.0})
                w["busy_s"] += dur
        elif kind == "trial" and event == "complete":
            who = ev.get("worker") or ev.get("pid")
            if who is not None:
                w = workers.setdefault(who, {"trials": 0, "busy_s": 0.0})
                w["trials"] += 1
    for s in stages.values():
        s["mean_s"] = s["total_s"] / s["count"] if s["count"] else 0.0
        s["total_s"] = round(s["total_s"], 6)
        s["mean_s"] = round(s["mean_s"], 6)
    for w in workers.values():
        w["busy_s"] = round(w["busy_s"], 6)
    return {
        "events": len(events),
        "sweeps": sweeps,
        "stages": stages,
        "cache": cache,
        "graphstore": graphstore,
        "workers": workers,
    }


def render_trace_report(path: str) -> str:
    """Render ``repro report trace``'s plain-text summary of a trace."""
    summary = summarize_trace(path)
    blocks: List[str] = []

    rows = []
    for sw in summary["sweeps"]:
        rows.append(
            [
                sw.get("sweep", "?"),
                sw.get("trials", "-"),
                sw.get("workers", "-"),
                sw.get("cache_hits", "-"),
                sw.get("cache_misses", "-"),
                sw.get("graph_builds", "-"),
                sw.get("graph_reuses", "-"),
                sw.get("wall_s", "-"),
            ]
        )
    blocks.append(
        render_table(
            f"trace: {os.path.basename(path)} ({summary['events']} events)",
            ["sweep", "trials", "workers", "hits", "misses", "builds",
             "reuses", "wall_s"],
            rows,
            note="cache: "
            f"{summary['cache']['hit']} hits / "
            f"{summary['cache']['miss']} misses",
        )
    )

    stage_rows = [
        [name, int(s["count"]), s["total_s"], s["mean_s"] * 1000.0]
        for name, s in sorted(summary["stages"].items())
    ]
    blocks.append(
        render_table(
            "stage spans",
            ["stage", "spans", "total_s", "mean_ms"],
            stage_rows,
        )
    )

    if summary["graphstore"]:
        gs_rows = [
            [event, count]
            for event, count in sorted(summary["graphstore"].items())
        ]
        blocks.append(
            render_table("graphstore events", ["event", "count"], gs_rows)
        )

    if summary["workers"]:
        wall = 0.0
        for sw in summary["sweeps"]:
            try:
                wall += float(sw.get("wall_s") or 0.0)
            except (TypeError, ValueError):
                pass
        w_rows = []
        for who, w in sorted(summary["workers"].items(), key=lambda kv: str(kv[0])):
            share = (w["busy_s"] / wall) if wall > 0 else 0.0
            w_rows.append(
                [who, int(w["trials"]), w["busy_s"], f"{share:.0%}"]
            )
        blocks.append(
            render_table(
                "worker utilization",
                ["worker", "trials", "busy_s", "of wall"],
                w_rows,
                note="busy time is the sum of stage spans per worker "
                "(executor worker id when present, else pid)",
            )
        )

    return "\n\n".join(blocks)
