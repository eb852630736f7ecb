"""Paper-pipeline benchmark: flagship sweep trials timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload legal_recursion --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 11 --record-reference

Each sample runs in a fresh process (``child.py``): a few set-up probes,
then whole workload batches until about ``--seconds`` of measuring is
spent (at least one).  Reported values are the smallest sample (per
trial for ``n_slope``).
With ``--trace 1`` one untraced and one traced batch run instead, and the
per-layer metrics come from the traced one.

Correctness: every trial must pass the program's verifier, replay
unchanged from the cache, give the same metrics in every batch of the run
(traced or not) and, when ``reference.json`` holds the seed, match the
stored digests.  Anything else counts as a failed trial and the command
exits 1.  Output: one ``name value unit`` line per metric, a ``stamp``
line, and as the last line one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Exit code 2 means the benchmark could not run
at all (no sources, a sample that crashed or timed out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
#: metric names, units and bounds, as the benchmark declares them
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
#: scratch space for caches and reports, inside the checkout
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

#: printed with the end-to-end metrics but kept out of the result line:
#: fail_rate is ``failed / attempted`` there already, and the output sums
#: are zero on the workloads that run no coloring / no decomposition
REPORTED_ONLY = (("fail_rate", "ratio"), ("colors_total", "count"),
                 ("forests_total", "count"))

#: set-up-only samples per untraced run, on top of each batch's own set-up
SETUP_PROBES = 5
#: a batch is not started if it would likely end past this share of --seconds
OVERRUN = 1.1
#: one sample's limit; the whole command must end within 180 s
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not produce a measurement."""


def git_sha() -> str:
    """HEAD of the checkout; "unknown" in a source export that is no repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    # a source export inside some other repository is not that repository
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return "unknown"
    return lines[1]


def spawn(workload: str, seed: int, mode: str, work: str) -> dict:
    """Run one sample in a fresh process and return its report."""
    sample = tempfile.mkdtemp(prefix=f"{mode}-", dir=work)
    cfg = json.dumps({"workload": workload, "seed": seed, "mode": mode, "work": sample})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    started = time.time()
    # own session, so that pool workers a crashed sample leaves behind are
    # stopped with it
    proc = subprocess.Popen(
        [sys.executable, CHILD, cfg], cwd=ROOT, env=env,
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        why = "timed out" if code is None else f"exited with {code}"
        raise BenchError(f"{workload} {mode} sample {why}")
    with open(os.path.join(sample, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    shutil.rmtree(sample, ignore_errors=True)
    if report.get("first_request") is not None:
        report["setup_s"] = report["first_request"] - started
    return report


def digest(metrics: dict) -> str:
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(batch: dict, expected: list, problems: list) -> int:
    """Failed trials of one batch.

    ``expected`` holds ``(what, digests)`` pairs, one metrics digest per
    trial in spec order: a stored reference, or an earlier batch of the
    same run.  A trial fails once, whatever the number of reasons.
    """
    failed = batch["attempted"] - batch.get("completed", 0)
    for err in batch["errors"]:
        problems.append(err.strip().splitlines()[-1])
    trials = batch.get("trials", [])
    for i, t in enumerate(trials):
        reasons = []
        if t["metrics"].get("verified") is not True:
            reasons.append("not verified")
        if not t["replayed"]:
            reasons.append("cache replay differs")
        for what, want in expected:
            if i >= len(want) or want[i] != digest(t["metrics"]):
                reasons.append(f"metrics {t['metrics']} differ from {what}")
        if reasons:
            failed += 1
            problems.append(f"{t['label']}: {'; '.join(reasons)}")
    for what, want in expected:
        if trials and len(want) != len(trials):
            problems.append(f"{len(trials)} trials, but {len(want)} in {what}")
    return failed


def digests(batch: dict) -> list:
    return [digest(t["metrics"]) for t in batch["trials"]]


def output_sums(batch: dict) -> dict:
    metrics = [t["metrics"] for t in batch["trials"]]
    return {
        "rounds_total": sum(m["rounds"] for m in metrics),
        "colors_total": sum(m.get("colors", 0) for m in metrics),
        "forests_total": sum(m.get("num_forests", 0) for m in metrics),
    }


def n_slope(batches: list) -> float:
    """Log-log slope of per-trial wall against n, averaged over algorithms.

    Each trial's wall is its fastest over the run's batches, like
    ``wall_s``.
    """
    sys.path.insert(0, SRC)
    from repro.analysis.bounds import fit_loglog_slope

    points: dict = {}
    for i, t in enumerate(batches[0]["trials"]):
        wall = min(b["trials"][i]["wall"] for b in batches)
        points.setdefault(t["algorithm"], []).append((t["n"], wall))
    return statistics.fmean(fit_loglog_slope(*zip(*p, strict=True)) for p in points.values())


def measure(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """All samples of one workload: metrics, trial counts, problems, stamp."""
    stored = load_json(REFERENCE)["workloads"].get(name, {}).get(str(seed))
    # an untraced run has no traced batch to compare with: its stamp says
    # where the workload's trace_overhead is measured instead
    out = {"attempted": 0, "failed": 0, "problems": [], "metrics": {}, "sums": {},
           "stamp": {"workload": name, "seed": seed,
                     "trace_overhead": f"measured by --trace 1 --seed {seed}",
                     "reference": "checked" if stored else "none stored for this seed"}}

    def take(batch: dict, first: dict | None) -> None:
        expected = [("the stored reference", stored)] if stored else []
        if first is not None and "trials" in first:
            expected.append(("the run's first batch", digests(first)))
        out["attempted"] += batch["attempted"]
        out["failed"] += check(batch, expected, out["problems"])

    if trace:
        base = spawn(name, seed, "batch", work)
        take(base, None)
        traced = spawn(name, seed, "traced", work)
        take(traced, base)
        if base["errors"] or traced["errors"]:
            return out
        values = dict(traced["layers"])
        values["trace_overhead"] = traced["wall_s"] / base["wall_s"] - 1.0
        if not traced["attribution_ok"]:
            out["problems"].append(
                "attribution self-check: worst trial's self times are "
                f"{values['trace.attribution_error']:.1%} off its wall"
            )
        out["metrics"] = {m["name"]: (values[m["name"]], m["unit"])
                          for m in load_json(MANIFEST)["per_layer"]}
        out["stamp"].update(traced["env"], trace_overhead=values["trace_overhead"],
                            samples={"batches": 1, "traced": 1})
        return out

    setups = [spawn(name, seed, "probe", work)["setup_s"] for _ in range(SETUP_PROBES)]
    batches = []
    t0 = perf_counter()
    while True:
        batch = spawn(name, seed, "batch", work)
        take(batch, batches[0] if batches else None)
        batches.append(batch)
        if batch["errors"]:
            return out
        setups.append(batch["setup_s"])
        spent = perf_counter() - t0
        if spent * (len(batches) + 1) / len(batches) > seconds * OVERRUN:
            break
    out["sums"] = output_sums(batches[0])
    # the smallest sample of each: on a shared host, slow moments and late
    # allocator growth only ever add to a sample, so the minimum is steady
    values = {
        "wall_s": min(b["wall_s"] for b in batches),
        "setup_s": min(setups),
        "n_slope": n_slope(batches),
        "peak_rss_mb": min(b["peak_rss_mb"] for b in batches),
        "rounds_total": out["sums"]["rounds_total"],
    }
    out["metrics"] = {m["name"]: (values[m["name"]], m["unit"])
                      for m in load_json(MANIFEST)["end_to_end"]}
    out["stamp"].update(batches[0]["env"],
                        samples={"batches": len(batches), "setup": len(setups)})
    return out


def record_reference(names, seed: int, work: str) -> int:
    reference = load_json(REFERENCE)
    for name in names:
        batch = spawn(name, seed, "batch", work)
        problems: list = []
        if check(batch, [], problems) or problems:
            print(f"{name}: not recorded: {problems}", file=sys.stderr)
            return 1
        reference["workloads"].setdefault(name, {})[str(seed)] = digests(batch)
        print(f"{name}: recorded {len(batch['trials'])} trials for seed {seed}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's metric digests in reference.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.record_reference:
            return record_reference(names, args.seed, work)
        outcomes = {n: measure(n, args.seed, args.seconds, bool(args.trace), work)
                    for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it

    sha = git_sha()
    result_metrics = {}
    attempted = failed = 0
    problems = []
    for name, out in outcomes.items():
        attempted += out["attempted"]
        failed += out["failed"]
        problems += [f"{name}: {p}" for p in out["problems"]]
        prefix = "" if len(outcomes) == 1 else f"{name}."
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, (value, unit) in out["metrics"].items():
            print(f"  {metric:<28} {value:>16.6g} {unit}")
            result_metrics[prefix + metric] = {"value": value, "unit": unit}
        if not args.trace:
            rate = out["failed"] / out["attempted"] if out["attempted"] else 1.0
            for metric, unit in REPORTED_ONLY:
                value = rate if metric == "fail_rate" else out["sums"].get(metric, 0)
                print(f"  {metric:<28} {value:>16.6g} {unit}")
        print("  stamp " + json.dumps({"git_sha": sha, **out["stamp"]}, sort_keys=True))
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
