"""Command-line interface: ``python -m repro``.

Lets a user run any algorithm of the library on any generated graph family
without writing code::

    python -m repro color --family forest_union --n 500 --a 8 --algorithm cor46
    python -m repro mis --family preferential --n 1000 --a 3
    python -m repro decompose --family planar --n 400
    python -m repro families
    python -m repro sweep --report
    python -m repro sweep --spec my_sweep.json --workers 8
    python -m repro sweep --workers 4 --trace sweep-trace.jsonl
    python -m repro sweep --executor socket --spawn-workers 4
    python -m repro worker --connect 127.0.0.1:7000
    python -m repro report trace sweep-trace.jsonl
    python -m repro check src benchmarks examples --format json
    python -m repro check --list-rules

Output is a small plain-text report: the instance, the result (colors /
set size / decomposition stats), the round count, and the verification
verdict.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from . import SynchronousNetwork
from .analysis import render_table
from .core import (
    arbdefective_coloring,
    be08_coloring,
    compute_hpartition,
    forests_decomposition,
    legal_coloring_auto,
    legal_coloring_corollary46,
    legal_coloring_theorem43,
    linial_coloring,
    luby_coloring,
    luby_mis,
    mis_arboricity,
    oneshot_legal_coloring,
    theorem52_fast_coloring,
    theorem53_tradeoff,
)
from .graphs import (
    GeneratedGraph,
    forest_union,
    grid,
    hypercube,
    low_arboricity_high_degree,
    planar_triangulation,
    preferential_attachment,
    random_geometric,
    random_regular,
    random_tree,
    ring,
)
from .verify import (
    check_forests_decomposition,
    check_hpartition,
    check_legal_coloring,
    check_mis,
)

#: family name -> builder(n, a, seed)
FAMILIES: Dict[str, Callable[[int, int, int], GeneratedGraph]] = {
    "forest_union": lambda n, a, seed: forest_union(n, a, seed=seed),
    "planar": lambda n, a, seed: planar_triangulation(n, seed=seed),
    "grid": lambda n, a, seed: grid(max(2, int(n**0.5)), max(2, int(n**0.5))),
    "tree": lambda n, a, seed: random_tree(n, seed=seed),
    "ring": lambda n, a, seed: ring(max(3, n)),
    "regular": lambda n, a, seed: random_regular(n, max(2, 2 * a), seed=seed),
    "preferential": lambda n, a, seed: preferential_attachment(n, max(1, a), seed=seed),
    "hubs": lambda n, a, seed: low_arboricity_high_degree(n, a, seed=seed),
    "hypercube": lambda n, a, seed: hypercube(max(2, (n - 1).bit_length())),
    # same name as the repro.experiments registry so sweep specs and the
    # classic commands agree on family vocabulary
    "random_geometric": lambda n, a, seed: random_geometric(n, 0.08, seed=seed),
}

COLORING_ALGORITHMS = {
    "cor46": ("Corollary 4.6: O(a^1.5) colors, O(log a log n) rounds",
              lambda net, a, seed: legal_coloring_corollary46(net, a, eta=0.5)),
    "thm43": ("Theorem 4.3: O(a) colors, O(a^0.5 log n) rounds",
              lambda net, a, seed: legal_coloring_theorem43(net, a, mu=1.0)),
    "oneshot": ("Lemma 4.1: O(a) colors, O(a^(2/3) log n) rounds",
                lambda net, a, seed: oneshot_legal_coloring(net, a)),
    "thm52": ("Theorem 5.2: O(a²/g) colors, near-log n rounds",
              lambda net, a, seed: theorem52_fast_coloring(net, a, d=max(1, a // 2))),
    "thm53": ("Theorem 5.3: O(a·t) colors, O((a/t)^µ log n) rounds",
              lambda net, a, seed: theorem53_tradeoff(net, a, t=max(1, a // 4))),
    "be08": ("BE08 baseline: O(a) colors, O(a log n) rounds",
             lambda net, a, seed: be08_coloring(net, a)),
    "linial": ("Linial baseline: O(Δ²) colors, O(log* n) rounds",
               lambda net, a, seed: linial_coloring(net)),
    "luby": ("randomized baseline: Δ+1 colors, O(log n) rounds w.h.p.",
             lambda net, a, seed: luby_coloring(net, seed=seed)),
    "auto": ("unknown arboricity: doubling + Corollary 4.6",
             lambda net, a, seed: legal_coloring_auto(net)),
}

MIS_ALGORITHMS = {
    "arboricity": ("the paper §1.2: O(a + a^µ log n) rounds",
                   lambda net, a, seed: mis_arboricity(net, a)),
    "luby": ("Luby's randomized MIS: O(log n) rounds w.h.p.",
             lambda net, a, seed: luby_mis(net, seed=seed)),
}


def _build_instance(args) -> GeneratedGraph:
    if args.family not in FAMILIES:
        raise SystemExit(
            f"unknown family {args.family!r}; run `python -m repro families`"
        )
    return FAMILIES[args.family](args.n, args.a, args.seed)


def _cmd_families(_args) -> int:
    rows = [[name] for name in sorted(FAMILIES)]
    print(render_table("graph families", ["name"], rows,
                       note="use with --family; --a is the arboricity knob "
                       "where the family has one"))
    return 0


def _cmd_color(args) -> int:
    if args.algorithm not in COLORING_ALGORITHMS:
        raise SystemExit(
            f"unknown algorithm {args.algorithm!r}; choose from "
            f"{sorted(COLORING_ALGORITHMS)}"
        )
    gen = _build_instance(args)
    net = SynchronousNetwork(gen.graph)
    description, runner = COLORING_ALGORITHMS[args.algorithm]
    result = runner(net, gen.arboricity_bound, args.seed)
    check_legal_coloring(gen.graph, result.colors)
    print(render_table(
        f"color / {args.algorithm}",
        ["n", "m", "Δ", "a≤", "colors", "rounds", "verified"],
        [[gen.n, gen.m, gen.max_degree, gen.arboricity_bound,
          result.num_colors, result.rounds, "legal ✓"]],
        note=description,
    ))
    return 0


def _cmd_mis(args) -> int:
    if args.algorithm not in MIS_ALGORITHMS:
        raise SystemExit(
            f"unknown algorithm {args.algorithm!r}; choose from "
            f"{sorted(MIS_ALGORITHMS)}"
        )
    gen = _build_instance(args)
    net = SynchronousNetwork(gen.graph)
    description, runner = MIS_ALGORITHMS[args.algorithm]
    result = runner(net, gen.arboricity_bound, args.seed)
    check_mis(gen.graph, result.members)
    print(render_table(
        f"mis / {args.algorithm}",
        ["n", "m", "Δ", "a≤", "|MIS|", "rounds", "verified"],
        [[gen.n, gen.m, gen.max_degree, gen.arboricity_bound,
          result.size, result.rounds, "independent+maximal ✓"]],
        note=description,
    ))
    return 0


def _cmd_decompose(args) -> int:
    gen = _build_instance(args)
    net = SynchronousNetwork(gen.graph)
    a = gen.arboricity_bound
    hp = compute_hpartition(net, a)
    check_hpartition(gen.graph, hp)
    fd = forests_decomposition(net, a, hpartition=hp)
    check_forests_decomposition(gen.graph, fd)
    k = max(2, args.k)
    dec = arbdefective_coloring(net, a, k=k, t=k)
    print(render_table(
        "decompose",
        ["structure", "result", "rounds"],
        [
            ["H-partition", f"{hp.num_levels} levels, degree ≤ {hp.degree_bound}",
             hp.rounds],
            ["forests", f"{fd.num_forests} edge-disjoint oriented forests",
             fd.rounds],
            [f"arbdefective (k=t={k})",
             f"{dec.num_parts} parts of arboricity ≤ {dec.arboricity_bound}",
             dec.rounds],
        ],
        note=f"instance: {gen.name}, n={gen.n}, m={gen.m}, a≤{a}",
    ))
    return 0


#: default on-disk cache location; override with --cache-dir or env var
DEFAULT_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _default_sweep_spec(n: int, num_seeds: int):
    """The built-in demo sweep: three families × three algorithm kinds."""
    from .experiments import SweepSpec, grid_scenarios

    scenarios = grid_scenarios(
        families=[
            {"name": "forest_union", "n": n, "a": 4},
            {"name": "planar", "n": n},
            {"name": "random_geometric", "n": n, "radius": 0.08},
        ],
        algorithms=[
            {"name": "cor46"},
            {"name": "forests"},
            {"name": "mis_arboricity"},
        ],
        num_seeds=num_seeds,
    )
    return SweepSpec("builtin-demo", scenarios)


def _cmd_sweep(args) -> int:
    from .errors import ExecutorError, InvalidParameterError
    from .experiments import (
        ResultCache,
        SocketExecutor,
        SweepSpec,
        default_workers,
        parse_address,
        report_table,
        run_sweep,
        spawn_local_workers,
        stage_timing_table,
    )

    if args.spec:
        try:
            spec = SweepSpec.from_file(args.spec)
        except OSError as exc:
            raise SystemExit(f"cannot read sweep spec: {exc}") from None
        except ValueError as exc:
            raise SystemExit(f"invalid sweep spec {args.spec!r}: {exc}") from None
    else:
        spec = _default_sweep_spec(args.n, args.seeds)

    from .experiments import ALGORITHMS, FAMILIES

    if args.scheduler:
        from .simulator import engine_names

        if args.scheduler not in engine_names():
            raise SystemExit(
                f"unknown scheduler {args.scheduler!r}; "
                f"registered engines: {', '.join(engine_names())}"
            )
        for sc in spec.scenarios:
            sc.scheduler = args.scheduler

    for sc in spec.scenarios:
        if sc.family not in FAMILIES:
            raise SystemExit(
                f"unknown graph family {sc.family!r} in sweep spec; "
                f"known: {sorted(FAMILIES)}"
            )
        if sc.algorithm not in ALGORITHMS:
            raise SystemExit(
                f"unknown algorithm {sc.algorithm!r} in sweep spec; "
                f"known: {sorted(ALGORITHMS)}"
            )

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            DEFAULT_CACHE_DIR_ENV, os.path.join(os.getcwd(), ".repro-cache")
        )
        cache = ResultCache(cache_dir)

    executor = None if args.executor == "auto" else args.executor
    coordinator = None
    spawned = []
    try:
        workers = args.workers if args.workers is not None else default_workers()
        if args.executor == "socket":
            # the coordinator outlives run_sweep (workers stay attached
            # across the sweep), so the CLI owns and closes it
            host, port = parse_address(args.listen)
            coordinator = SocketExecutor(
                host=host,
                port=port,
                min_workers=max(args.min_workers, args.spawn_workers, 1),
            )
            print(
                f"sweep: socket executor listening on {coordinator.address} "
                f"(attach workers with `repro worker --connect "
                f"{coordinator.address}`)"
            )
            if args.spawn_workers:
                spawned = spawn_local_workers(
                    coordinator.host, coordinator.port, args.spawn_workers
                )
            coordinator.wait_for_workers()
            print(
                f"sweep: {coordinator.worker_count()} worker(s) attached"
            )
            executor = coordinator
        result = run_sweep(
            spec,
            cache=cache,
            workers=workers,
            progress=print,
            use_shm=False if args.no_shm else None,
            trace=args.trace,
            executor=executor,
        )
    except (ExecutorError, InvalidParameterError) as exc:
        raise SystemExit(str(exc)) from None
    finally:
        if coordinator is not None:
            coordinator.close()
        for proc in spawned:
            proc.terminate()
        for proc in spawned:
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()

    if args.stage_timings:
        print(stage_timing_table(result))
    if args.report:
        print(report_table(result))
    elif not args.stage_timings:
        rows = [
            [tr.trial.family, tr.trial.algorithm, tr.trial.seed,
             tr.metrics.get("n", "-"), tr.metrics.get("rounds", "-"),
             "hit" if tr.cached else "miss"]
            for tr in result
        ]
        print(render_table(
            f"sweep — {spec.name}",
            ["family", "algorithm", "seed", "n", "rounds", "cache"],
            rows,
            note="pass --report for percentile aggregation per (family, algorithm)",
        ))
    hit_pct = 100.0 * result.hit_rate
    summary = (
        f"sweep: {result.num_trials} trial(s) in {result.wall_s:.2f}s with "
        f"{workers} worker(s); cache: {result.cache_hits} hit(s), "
        f"{result.cache_misses} miss(es) ({hit_pct:.0f}% hit rate)"
    )
    if cache is not None and cache.corrupt_lines:
        # the store tolerated malformed JSONL lines (crash mid-append,
        # disk damage) — say so instead of silently recomputing those keys
        summary += (
            f"; {cache.corrupt_lines} corrupt cache line(s) tolerated"
        )
    print(summary)
    if result.graph_builds:
        print(
            f"sweep: graph store: {result.graph_builds} shared build(s) on "
            f"the {result.executor} executor "
            f"({result.graph_build_s:.2f}s build wall), "
            f"{result.graph_reuses} reuse(s)"
        )
    if args.trace:
        print(
            f"sweep: trace appended to {args.trace} "
            f"(summarize with `repro report trace {args.trace}`)"
        )
    return 0


def _cmd_worker(args) -> int:
    from .experiments import parse_address, run_worker

    host, port = parse_address(args.connect)
    return run_worker(host, port, say=print)


def _cmd_check(args) -> int:
    from .analysis.check import RULES, check_paths, rule_ids
    from .analysis.check.runner import (
        render_github,
        render_human,
        render_json,
    )

    if args.list_rules:
        rows = [
            [rid, RULES[rid].severity, RULES[rid].summary]
            for rid in rule_ids()
        ]
        print(render_table(
            "repro check — rule catalog",
            ["rule", "severity", "summary"],
            rows,
            note="suppress inline with `# repro: allow[rule-id] reason`",
        ))
        return 0

    if args.rule:
        unknown = sorted(set(args.rule) - set(rule_ids()))
        if unknown:
            raise SystemExit(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"registered rules: {', '.join(rule_ids())}"
            )
    paths = args.paths or ["src", "benchmarks", "examples"]
    try:
        result = check_paths(paths, rule_ids=args.rule or None)
    except FileNotFoundError as exc:
        raise SystemExit(f"cannot check {exc}: no such file or directory") from None
    renderer = {
        "human": render_human,
        "json": render_json,
        "github": render_github,
    }[args.format]
    print(renderer(result))
    return 0 if result.ok else 1


def _cmd_report(args) -> int:
    from .obs import render_trace_report

    if args.kind == "trace":
        try:
            print(render_trace_report(args.path))
        except OSError as exc:
            raise SystemExit(f"cannot read trace: {exc}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Barenboim-Elkin PODC'10 reproduction: distributed "
        "coloring on a LOCAL-model simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--family", default="forest_union")
        p.add_argument("--n", type=int, default=400)
        p.add_argument("--a", type=int, default=8,
                       help="arboricity knob for families that take one")
        p.add_argument("--seed", type=int, default=0)

    p_color = sub.add_parser("color", help="run a coloring algorithm")
    add_instance_args(p_color)
    p_color.add_argument(
        "--algorithm", default="cor46",
        help=f"one of {sorted(COLORING_ALGORITHMS)}",
    )
    p_color.set_defaults(func=_cmd_color)

    p_mis = sub.add_parser("mis", help="run an MIS algorithm")
    add_instance_args(p_mis)
    p_mis.add_argument(
        "--algorithm", default="arboricity",
        help=f"one of {sorted(MIS_ALGORITHMS)}",
    )
    p_mis.set_defaults(func=_cmd_mis)

    p_dec = sub.add_parser("decompose", help="show the decomposition stack")
    add_instance_args(p_dec)
    p_dec.add_argument("--k", type=int, default=2,
                       help="arbdefective split parameter (k = t)")
    p_dec.set_defaults(func=_cmd_decompose)

    p_fam = sub.add_parser("families", help="list graph families")
    p_fam.set_defaults(func=_cmd_families)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a multi-family, multi-algorithm sweep (parallel, cached)",
    )
    p_sweep.add_argument(
        "--spec", default=None,
        help="JSON sweep spec file (default: the built-in demo sweep)",
    )
    p_sweep.add_argument("--n", type=int, default=200,
                         help="instance size for the built-in sweep")
    p_sweep.add_argument("--seeds", type=int, default=2,
                         help="replicates per scenario for the built-in sweep")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="pool size (default: min(cores, cap) with the "
                         "cap of 8 overridable via $REPRO_WORKERS; 1 = serial)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="result cache directory "
                         f"(default: $REPRO_CACHE_DIR or ./.repro-cache)")
    p_sweep.add_argument("--scheduler", default="", metavar="ENGINE",
                         help="run every scenario on this simulator engine "
                         "(overrides any per-scenario setting; default: "
                         "column, which falls back to event for programs "
                         "without a kernel; see the engine registry for "
                         "names)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="recompute everything; do not read or write the cache")
    p_sweep.add_argument("--report", action="store_true",
                         help="print the percentile aggregation instead of per-trial rows")
    p_sweep.add_argument("--stage-timings", action="store_true",
                         help="print mean per-stage wall times "
                         "(build_graph/run_algorithm/verify/metrics) per group")
    p_sweep.add_argument("--no-shm", action="store_true",
                         help="disable shared-memory graph publishing for "
                         "parallel runs (pickle fallback; $REPRO_NO_SHM=1 "
                         "does the same)")
    p_sweep.add_argument("--trace", default=None, metavar="PATH",
                         help="append structured JSONL trace spans (stages, "
                         "GraphStore lifecycle, cache hits/misses, pool "
                         "dispatch) to PATH; summarize with "
                         "`repro report trace PATH`")
    p_sweep.add_argument("--executor",
                         choices=["auto", "serial", "pool", "socket"],
                         default="auto",
                         help="execution backend: auto (serial for "
                         "--workers 1, a local pool otherwise), serial, "
                         "pool, or socket (become a coordinator; workers "
                         "attach with `repro worker --connect`)")
    p_sweep.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                         help="socket executor listen address; port 0 picks "
                         "a free port (printed at startup). Bind only to "
                         "loopback or trusted private interfaces — the "
                         "protocol carries pickles")
    p_sweep.add_argument("--min-workers", type=int, default=1,
                         help="socket executor: wait for this many attached "
                         "workers before dispatching")
    p_sweep.add_argument("--spawn-workers", type=int, default=0, metavar="N",
                         help="socket executor: also start N loopback "
                         "`repro worker` subprocesses (single-host "
                         "scale-out without a second terminal)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_worker = sub.add_parser(
        "worker",
        help="attach this process to a sweep coordinator "
        "(`repro sweep --executor socket`) and serve trials",
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator address printed by "
                          "`repro sweep --executor socket`")
    p_worker.set_defaults(func=_cmd_worker)

    p_check = sub.add_parser(
        "check",
        help="statically check CONGEST/engine/concurrency contracts "
        "(node programs, column kernels, executors, cache keys)",
    )
    p_check.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze "
        "(default: src benchmarks examples)",
    )
    p_check.add_argument(
        "--format", choices=["human", "json", "github"], default="human",
        help="output format: human (default), json (machine-readable, "
        "surfaces suppressions), github (workflow annotations)",
    )
    p_check.add_argument(
        "--rule", action="append", default=[], metavar="RULE-ID",
        help="run only this rule (repeatable; default: every rule)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser(
        "report", help="summarize observability artifacts"
    )
    p_report.add_argument("kind", choices=["trace"],
                          help="artifact type (currently: trace)")
    p_report.add_argument("path", help="path to a sweep trace JSONL file")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
