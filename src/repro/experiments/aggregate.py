"""Aggregation of sweep results into per-group statistics and report tables.

Groups trials by (family, algorithm) — or any other spec fields — and
summarises every numeric metric with count/mean/percentiles.  Wall times are
deliberately *not* part of the summaries: metrics are round/color/message
quantities that are deterministic functions of the trial spec, so the
aggregate report of a sweep is byte-identical across machines and across
cached/fresh runs (the property the cache tests pin down).

Feeds :func:`repro.analysis.tables.render_table` for presentation, like
every other reporting path in the repo.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis import render_table
from .registry import STAGES
from .runner import SweepResult, TrialResult

__all__ = [
    "percentile",
    "summarize",
    "report_table",
    "stage_timing_table",
    "GroupSummary",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method; defined for any non-empty
    sequence without needing numpy.
    """
    if not values:
        raise ValueError("percentile: empty sequence")
    if not (0.0 <= q <= 100.0):
        raise ValueError("percentile: q must be in [0, 100]")
    xs = sorted(float(v) for v in values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class GroupSummary:
    """Statistics of one (group key -> metric -> stats) cell block."""

    def __init__(self, group: Dict[str, object], trials: List[TrialResult]):
        self.group = group
        self.trials = trials
        self.metrics: Dict[str, Dict[str, float]] = {}
        for name in self._numeric_metric_names(trials):
            vals = [
                float(t.metrics[name])
                for t in trials
                if isinstance(t.metrics.get(name), (int, float))
                and not isinstance(t.metrics.get(name), bool)
            ]
            if vals:
                self.metrics[name] = {
                    "count": float(len(vals)),
                    "mean": sum(vals) / len(vals),
                    "p50": percentile(vals, 50),
                    "p95": percentile(vals, 95),
                    "min": min(vals),
                    "max": max(vals),
                }

    @staticmethod
    def _numeric_metric_names(trials: List[TrialResult]) -> List[str]:
        names: List[str] = []
        for t in trials:
            for k, v in t.metrics.items():
                if (
                    isinstance(v, (int, float))
                    and not isinstance(v, bool)
                    and k not in names
                ):
                    names.append(k)
        return sorted(names)

    @property
    def count(self) -> int:
        return len(self.trials)

    def stat(self, metric: str, which: str = "mean") -> Optional[float]:
        """One statistic, or ``None`` when the metric was never reported."""
        block = self.metrics.get(metric)
        return None if block is None else block.get(which)


def _group_key(trial: TrialResult, by: Sequence[str]) -> Tuple:
    vals = []
    for field in by:
        if field == "family":
            vals.append(trial.trial.family)
        elif field == "algorithm":
            vals.append(trial.trial.algorithm)
        elif field == "seed":
            vals.append(trial.trial.seed)
        else:
            # spec param lookup: family params shadow algorithm params
            v = trial.trial.family_params.get(field)
            if v is None:
                v = trial.trial.algorithm_params.get(field)
            if v is None:
                v = trial.metrics.get(field)
            vals.append(v)
    return tuple(vals)


def summarize(
    results: Iterable[TrialResult],
    by: Sequence[str] = ("family", "algorithm"),
) -> List[GroupSummary]:
    """Group trials by the given spec fields and summarise each group.

    Groups come back sorted by their key so reports are deterministic.
    """
    buckets: Dict[Tuple, List[TrialResult]] = {}
    for tr in results:
        buckets.setdefault(_group_key(tr, by), []).append(tr)
    out = []
    for key in sorted(buckets, key=lambda k: tuple(str(x) for x in k)):
        group = dict(zip(by, key, strict=True))
        out.append(GroupSummary(group, buckets[key]))
    return out


#: metrics worth a report column, in display order, with short headers
_REPORT_METRICS = [
    ("rounds", "rounds p50"),
    ("colors", "colors p50"),
    ("num_forests", "forests p50"),
    ("mis_size", "|MIS| p50"),
]


def report_table(
    sweep: SweepResult,
    by: Sequence[str] = ("family", "algorithm"),
    title: Optional[str] = None,
) -> str:
    """Render the standard sweep report: one row per group.

    Shows trial counts and the p50/p95 of round complexity plus the p50 of
    whichever solution-quality metrics the group reported (colors, forests,
    MIS size) — groups of different kinds can share one table.
    """
    groups = summarize(sweep.results, by=by)
    headers = [*by, "trials", "n p50"]
    active = [
        (m, h)
        for m, h in _REPORT_METRICS
        if any(g.stat(m) is not None for g in groups)
    ]
    headers += [h for _m, h in active]
    headers += ["rounds p95"]
    rows = []
    for g in groups:
        row: List[object] = [g.group[f] for f in by]
        row.append(g.count)
        row.append(_maybe(g.stat("n", "p50")))
        for m, _h in active:
            row.append(_maybe(g.stat(m, "p50")))
        row.append(_maybe(g.stat("rounds", "p95")))
        rows.append(row)
    # no cache/wall-time provenance here: the report of a sweep must be
    # byte-identical whether it was computed fresh or served from cache
    return render_table(title or f"sweep report — {sweep.name}", headers, rows,
                        note=f"{sweep.num_trials} trials")


def _maybe(v: Optional[float]) -> object:
    return "-" if v is None else v


def stage_timing_table(
    sweep: SweepResult,
    by: Sequence[str] = ("family", "algorithm"),
    title: Optional[str] = None,
) -> str:
    """Render mean per-stage wall times per group, in milliseconds.

    Unlike :func:`report_table` this is *deliberately* machine- and
    run-dependent — it answers "where does the wall clock go" (graph build
    vs. algorithm vs. verification), the question the staged engine exists
    for.  Most cache hits carry the stage timings of the run that computed
    them and contribute to the means like fresh trials; records written
    before the staged engine have no ``stages`` at all and are rendered as
    cached rows rather than dropped or zero-filled: they count in
    ``trials`` and ``cached`` but not in ``timed``, and a group with no
    timed trial shows ``-`` for every mean instead of fabricated zeros.
    """
    groups = summarize(sweep.results, by=by)
    headers = [*by, "trials", "timed", "cached"]
    headers += [*(f"{s} ms" for s in STAGES), "total ms"]
    rows = []
    for g in groups:
        timed = [t for t in g.trials if t.stages]
        row: List[object] = [g.group[f] for f in by]
        row.append(g.count)
        row.append(len(timed))
        row.append(sum(1 for t in g.trials if t.cached))
        total = 0.0
        for stage in STAGES:
            if timed:
                mean_s = sum(t.stages.get(stage, 0.0) for t in timed) / len(timed)
                total += mean_s
                row.append(round(1e3 * mean_s, 2))
            else:
                row.append("-")
        row.append(round(1e3 * total, 2) if timed else "-")
        rows.append(row)
    note = (
        "mean wall time per trial stage (machine-dependent; cached "
        "records keep the timings of the run that computed them; "
        "pre-staged cache records carry no timings and show as cached, "
        "untimed rows)"
    )
    if sweep.graph_builds:
        note += (
            f"; shared graphs: {sweep.graph_builds} build(s) on the "
            f"{sweep.executor} executor, {sweep.graph_reuses} reuse(s), "
            f"{sweep.graph_build_s:.2f}s build wall"
        )
    return render_table(
        title or f"stage timings — {sweep.name}",
        headers,
        rows,
        note=note,
    )
