"""Machine-readable perf records: ``BENCH_<name>.json`` under ``results/``.

Every benchmark run produces one JSON record per ``bench_*.py`` module so
that perf is a *trajectory*, not a table that scrolls away:

* the conftest hooks time every bench test and call :func:`note_test`;
* benches with first-class metrics (rounds·nodes/s, speedup ratios, sweep
  cache hit rates) attach them with :func:`add_metrics`;
* at session end :func:`flush` writes ``BENCH_<name>.json`` with the git
  sha, a UTC timestamp, total wall time, per-test wall times, and the
  attached metrics.

CI uploads the records as workflow artifacts and gates on the ratio metrics
(see ``check_perf_regression.py``): ratios of two measurements taken on the
same machine are comparable across machines, absolute wall times are not.

Compare two records locally with::

    python benchmarks/check_perf_regression.py results/BENCH_graph_core.json \
        benchmarks/baselines/BENCH_graph_core.json
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional

SCHEMA_VERSION = 1

#: per-bench state accumulated during the pytest session
_PENDING: Dict[str, Dict[str, Any]] = {}


def results_dir() -> str:
    """Where records land; honors ``REPRO_RESULTS_DIR`` like the tables do."""
    from repro.analysis.tables import results_dir as _rd

    return _rd()


def git_sha() -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def topology() -> Dict[str, Any]:
    """The host-shape block embedded in every record.

    Parallelism-dependent ratio metrics (``socket_loopback_*``) only mean
    something relative to a machine shape; recording it lets
    ``check_perf_regression.py`` skip those floors on smaller boxes
    instead of tripping on topology rather than regression.
    """
    try:
        from repro.obs.topology import topology as _topo

        return _topo()
    except Exception:  # never fail a perf record over the probe
        return {"cpu_count": os.cpu_count() or 1}


def _entry(bench: str) -> Dict[str, Any]:
    return _PENDING.setdefault(bench, {"metrics": {}, "tests": {}})


def add_metrics(bench: str, **metrics: Any) -> None:
    """Attach named metrics to the ``BENCH_<bench>.json`` record.

    Call from inside a bench test with whatever first-class numbers the
    bench measures (``*_speedup`` ratios, ``*_rounds_nodes_per_s``
    throughputs, ``cache_hit_rate``...).  Values must be JSON-serializable.
    """
    _entry(bench)["metrics"].update(metrics)


def add_sweep_metrics(bench: str, sweep_result: Any) -> None:
    """Attach the standard accounting of a ``run_sweep`` result."""
    add_metrics(
        bench,
        cache_hit_rate=round(sweep_result.hit_rate, 4),
        cache_hits=sweep_result.cache_hits,
        cache_misses=sweep_result.cache_misses,
        sweep_trials=sweep_result.num_trials,
        sweep_wall_s=round(sweep_result.wall_s, 4),
    )


def note_test(bench: str, test_name: str, duration_s: float) -> None:
    """Record one bench test's wall time (called by the conftest hooks)."""
    _entry(bench)["tests"][test_name] = round(duration_s, 4)


def record(bench: str, extra: Optional[Dict[str, Any]] = None) -> str:
    """Write ``BENCH_<bench>.json`` now; returns the path written."""
    state = _entry(bench)
    tests = state["tests"]
    payload = {
        "schema": SCHEMA_VERSION,
        "bench": bench,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "wall_s": round(sum(tests.values()), 4),
        "topology": topology(),
        "tests": dict(sorted(tests.items())),
        "metrics": state["metrics"],
    }
    if extra:
        payload.update(extra)
    path = os.path.join(results_dir(), f"BENCH_{bench}.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def flush() -> None:
    """Write one record per bench module seen this session (conftest hook)."""
    for bench in sorted(_PENDING):
        try:
            path = record(bench)
        except OSError as exc:  # never fail the run over a perf record
            print(f"perf_record: could not write {bench}: {exc}", file=sys.stderr)
        else:
            print(f"perf record: {path}")
    _PENDING.clear()
