"""Named registries of graph families and algorithm runners, plus the
staged, picklable trial entry points the parallel runner fans out.

Everything a worker process needs is resolved *by name* inside
:func:`execute_trial`, so the only objects that cross the process boundary
are plain dicts plus (optionally) a shared-memory graph reference — trials
go out as ``TrialSpec.to_dict()`` payloads and results come back as
JSON-serialisable records.  That keeps the ``multiprocessing`` plumbing
trivial and the cache format identical to the wire format.

A trial is executed as four explicit **stages**, mirroring the staged
structure of the paper's own pipeline (decompose once, consume many times):

``build_graph``
    materialise (or attach) the graph instance — skipped work when a
    build payload already built it for the
    :class:`~repro.experiments.graphstore.GraphStore`;
``run_algorithm``
    the algorithm proper, on a fresh :class:`~repro.SynchronousNetwork`;
``verify``
    the matching :mod:`repro.verify` checker — a cached record is always a
    *checked* result;
``metrics``
    flatten the verified result into the JSON-serialisable metrics dict.

Each stage's wall time is recorded in the result record under ``stages``,
and ``provenance`` says where the graph came from (``built`` / ``store`` /
``shm``) and which process ran the trial.  Both live *outside*
``metrics``: metrics are deterministic functions of the trial spec and must
be byte-identical across serial, parallel, shm, and no-shm execution.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .. import SynchronousNetwork
from ..core import (
    be08_coloring,
    delta_plus_one_via_arboricity,
    forests_decomposition,
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
from ..errors import InvalidParameterError, VerificationError
from ..graphs import (
    GeneratedGraph,
    erdos_renyi,
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
from ..verify import check_forests_decomposition, check_legal_coloring, check_mis
from .spec import TrialSpec, derive_seed

# ----------------------------------------------------------------------
# graph family registry: name -> builder(seed, **family_params)
# ----------------------------------------------------------------------


def _fam_forest_union(seed: int, n: int = 400, a: int = 8, density: float = 1.0):
    return forest_union(n, a, seed=seed, density=density)


def _fam_planar(seed: int, n: int = 400):
    return planar_triangulation(n, seed=seed)


def _fam_tree(seed: int, n: int = 400):
    return random_tree(n, seed=seed)


def _fam_grid(seed: int, rows: int = 20, cols: int = 20):
    return grid(rows, cols)


def _fam_ring(seed: int, n: int = 400):
    return ring(n)


def _fam_hypercube(seed: int, dim: int = 8):
    return hypercube(dim)


def _fam_regular(seed: int, n: int = 400, d: int = 8):
    return random_regular(n, d, seed=seed)


def _fam_preferential(seed: int, n: int = 400, m: int = 3):
    return preferential_attachment(n, m, seed=seed)


def _fam_hubs(seed: int, n: int = 400, a: int = 3, num_hubs: int = 4):
    return low_arboricity_high_degree(n, a, num_hubs=num_hubs, seed=seed)


def _fam_erdos_renyi(seed: int, n: int = 400, p: float = 0.02):
    return erdos_renyi(n, p, seed=seed)


def _fam_geometric(seed: int, n: int = 400, radius: float = 0.08):
    return random_geometric(n, radius, seed=seed)


FAMILIES: Dict[str, Callable[..., GeneratedGraph]] = {
    "forest_union": _fam_forest_union,
    "planar": _fam_planar,
    "tree": _fam_tree,
    "grid": _fam_grid,
    "ring": _fam_ring,
    "hypercube": _fam_hypercube,
    "regular": _fam_regular,
    "preferential": _fam_preferential,
    "hubs": _fam_hubs,
    "erdos_renyi": _fam_erdos_renyi,
    "random_geometric": _fam_geometric,
}


def build_instance(trial: TrialSpec) -> GeneratedGraph:
    """Materialise the graph instance of a trial from the family registry."""
    if trial.family not in FAMILIES:
        raise InvalidParameterError(
            f"unknown graph family {trial.family!r}; "
            f"known: {sorted(FAMILIES)}"
        )
    builder = FAMILIES[trial.family]
    try:
        return builder(trial.seed, **trial.family_params)
    except TypeError as exc:
        raise InvalidParameterError(
            f"bad params for family {trial.family!r}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# algorithm registry: name -> AlgorithmSpec(kind, run, extra_metrics)
# ----------------------------------------------------------------------
# ``run(net, gen, seed, params)`` returns the algorithm's own result object;
# verification and metric extraction are separate stages dispatched on
# ``kind`` (see _verify_result / _result_metrics below).


def _bound(gen: GeneratedGraph, params: Dict[str, Any]) -> int:
    """The arboricity bound an algorithm should use: an explicit ``a`` in
    the params wins, else the instance's certified bound."""
    return int(params.get("a", gen.arboricity_bound))


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: how to run, check, and report an algorithm.

    ``kind`` selects the verifier and the metric layout (``coloring`` /
    ``decomposition`` / ``mis``); ``extra_metrics`` names result params
    lifted into the metrics dict when the result reports them (honoured
    for every kind).
    """

    kind: str
    run: Callable[..., Any]
    extra_metrics: Tuple[str, ...] = ()


#: result params every coloring entry lifts into its metrics
_COLORING_EXTRAS = ("pre_reduction_colors", "final_color_space")


def _coloring(run: Callable[..., Any]) -> AlgorithmSpec:
    return AlgorithmSpec("coloring", run, extra_metrics=_COLORING_EXTRAS)


def _run_cor46(net, gen, seed, params):
    return legal_coloring_corollary46(
        net, _bound(gen, params), eta=float(params.get("eta", 0.5))
    )


def _run_thm43(net, gen, seed, params):
    return legal_coloring_theorem43(
        net, _bound(gen, params), mu=float(params.get("mu", 1.0))
    )


def _run_oneshot(net, gen, seed, params):
    return oneshot_legal_coloring(net, _bound(gen, params))


def _run_thm52(net, gen, seed, params):
    a = _bound(gen, params)
    return theorem52_fast_coloring(net, a, d=int(params.get("d", max(1, a // 2))))


def _run_thm53(net, gen, seed, params):
    a = _bound(gen, params)
    return theorem53_tradeoff(net, a, t=int(params.get("t", max(1, a // 4))))


def _run_be08(net, gen, seed, params):
    return be08_coloring(net, _bound(gen, params))


def _run_linial(net, gen, seed, params):
    return linial_coloring(net)


def _run_luby_coloring(net, gen, seed, params):
    return luby_coloring(net, seed=seed)


def _run_delta_plus_one(net, gen, seed, params):
    return delta_plus_one_via_arboricity(
        net, _bound(gen, params), nu=float(params.get("nu", 0.5))
    )


def _run_forests(net, gen, seed, params):
    return forests_decomposition(
        net, _bound(gen, params), epsilon=float(params.get("epsilon", 0.5))
    )


def _run_mis_arboricity(net, gen, seed, params):
    return mis_arboricity(net, _bound(gen, params), mu=float(params.get("mu", 0.5)))


def _run_luby_mis(net, gen, seed, params):
    return luby_mis(net, seed=seed)


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "cor46": _coloring(_run_cor46),
    "thm43": _coloring(_run_thm43),
    "oneshot": _coloring(_run_oneshot),
    "thm52": _coloring(_run_thm52),
    "thm53": _coloring(_run_thm53),
    "be08": _coloring(_run_be08),
    "linial": _coloring(_run_linial),
    "luby_coloring": _coloring(_run_luby_coloring),
    "delta_plus_one": _coloring(_run_delta_plus_one),
    "forests": AlgorithmSpec("decomposition", _run_forests),
    "mis_arboricity": AlgorithmSpec(
        "mis", _run_mis_arboricity,
        extra_metrics=("num_colors", "coloring_rounds", "sweep_rounds"),
    ),
    "luby_mis": AlgorithmSpec("mis", _run_luby_mis),
}


def _verify_result(kind: str, graph, result) -> None:
    """The ``verify`` stage: run the matching checker (raises on failure),
    and for a forests decomposition Lemma 2.2(2)'s bound of ⌊(2+ε)a⌋
    forests, its ``degree_bound``."""
    if kind == "coloring":
        check_legal_coloring(graph, result.colors)
    elif kind == "decomposition":
        check_forests_decomposition(graph, result)
        bound = result.params["degree_bound"]
        if result.num_forests > bound:
            raise VerificationError(
                f"{result.num_forests} forests exceed Lemma 2.2(2)'s bound "
                f"⌊(2+ε)a⌋ = {bound}"
            )
    elif kind == "mis":
        check_mis(graph, result.members)
    else:  # pragma: no cover - registry invariant
        raise InvalidParameterError(f"unknown algorithm kind {kind!r}")


def _result_metrics(
    spec: AlgorithmSpec, gen: GeneratedGraph, result
) -> Dict[str, Any]:
    """The ``metrics`` stage: flatten a verified result into a JSON dict."""
    out: Dict[str, Any] = {"kind": spec.kind}
    if spec.kind == "coloring":
        out["colors"] = result.num_colors
    elif spec.kind == "decomposition":
        out["num_forests"] = result.num_forests
    else:  # mis
        out["mis_size"] = result.size
    out["rounds"] = result.rounds
    out["verified"] = True
    params = getattr(result, "params", {})
    for k in spec.extra_metrics:
        if k in params:
            out[k] = params[k]
    out.setdefault("n", gen.n)
    out.setdefault("m", gen.m)
    out.setdefault("max_degree", gen.max_degree)
    out.setdefault("arboricity_bound", gen.arboricity_bound)
    return out


# ----------------------------------------------------------------------
# trial entry points (top-level, hence picklable by multiprocessing)
# ----------------------------------------------------------------------
#: stage names, in execution order, as they appear in records
STAGES = ("build_graph", "run_algorithm", "verify", "metrics")

#: payload/record marker for build-only pool work (no algorithm, no cache
#: record — the result hands a built graph back to the parent)
BUILD_KIND = "graph_build"


def payload_label(payload: Dict[str, Any]) -> str:
    """Human-readable identifier of any executor payload.

    Executors report failures in terms of payloads (a disconnected
    worker's in-flight work, a retry budget running out), and "payload
    17" helps nobody — this renders the underlying trial's label, with a
    ``build:`` prefix for build-only payloads.
    """
    try:
        label = TrialSpec.from_dict(payload["trial"]).label()
    except (KeyError, TypeError, ValueError):
        return "<malformed payload>"
    if payload.get("kind") == BUILD_KIND:
        return f"build:{label}"
    return label


def execute_build(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point for a build-only payload.

    The runner dispatches shared-graph construction to the same executor
    that runs the trials.  The executor builds the instance and hands it
    back one of two ways:

    * ``payload["shm_name"]`` set: publish the CSR arrays into a shared
      segment under that parent-chosen name (the parent adopts it with
      :meth:`~.graphstore.GraphStore.adopt_segment`; pre-naming means the
      parent can reclaim the segment even if this result never arrives)
      and return only the metadata;
    * no ``shm_name``: return the built
      :class:`~repro.graphs.generators.GeneratedGraph` in the result (a
      pool or socket transport pickles it; the serial backend hands it
      over by reference).

    Build results are *not* trial records: they carry no metrics and are
    never cached.
    """
    trial = TrialSpec.from_dict(payload["trial"])
    t0 = time.perf_counter()
    gen = build_instance(trial)
    build_s = time.perf_counter() - t0
    record: Dict[str, Any] = {
        "kind": BUILD_KIND,
        "graph_key": trial.graph_key(),
        "name": gen.name,
        "arboricity_bound": gen.arboricity_bound,
        "params": dict(gen.params),
        "build_s": round(build_s, 6),
        "pid": os.getpid(),
    }
    shm_name = payload.get("shm_name")
    if shm_name:
        seg = gen.graph.to_shm(name=shm_name)
        # the segment (not this worker's mapping) is the copy of record;
        # the parent owns unlinking
        seg.close()
        record["shm_name"] = shm_name
    else:
        record["graph"] = gen
    return record


def execute_trial(
    trial_dict: Dict[str, Any],
    gen: Optional[GeneratedGraph] = None,
    graph_source: str = "built",
) -> Dict[str, Any]:
    """Run one trial's four stages and return its cacheable record.

    The record is ``{"key", "trial", "metrics", "elapsed_s", "stages",
    "provenance"}`` plus ``phases`` (the serialized
    :class:`~repro.simulator.ledger.RoundLedger` breakdown) when the
    algorithm reports one; ``metrics`` always includes the instance's size
    statistics so aggregation never has to rebuild the graph.  Wall times
    (``elapsed_s``, the per-stage ``stages`` dict) and ``provenance`` are
    kept outside ``metrics`` because they are machine- and transport-
    dependent and must not affect aggregate reports.

    When ``gen`` is given the ``build_graph`` stage only accounts the
    attach/hand-off (a build payload already built the instance) and
    ``graph_source`` records where it came from.
    """
    trial = TrialSpec.from_dict(trial_dict)
    spec = ALGORITHMS.get(trial.algorithm)
    if spec is None:
        raise InvalidParameterError(
            f"unknown algorithm {trial.algorithm!r}; known: {sorted(ALGORITHMS)}"
        )
    stages: Dict[str, float] = {}
    t0 = time.perf_counter()
    if gen is None:
        gen = build_instance(trial)
        graph_source = "built"
    net = SynchronousNetwork(gen.graph, scheduler=trial.scheduler or "column")
    stages["build_graph"] = time.perf_counter() - t0
    # Algorithm randomness is decorrelated from the structural seed so that
    # e.g. Luby's coin flips are not the same stream that wired the graph.
    alg_seed = derive_seed(trial.key(), "alg")
    t0 = time.perf_counter()
    result = spec.run(net, gen, alg_seed, dict(trial.algorithm_params))
    stages["run_algorithm"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    _verify_result(spec.kind, gen.graph, result)
    stages["verify"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    metrics = _result_metrics(spec, gen, result)
    stages["metrics"] = time.perf_counter() - t0
    # elapsed_s is the sum of the *recorded* (rounded) stage times, so the
    # two fields in a record are always exactly consistent
    recorded = {name: round(stages[name], 6) for name in STAGES}
    record = {
        "key": trial.key(),
        "trial": trial.to_dict(),
        "metrics": metrics,
        "elapsed_s": round(sum(recorded.values()), 6),
        "stages": recorded,
        "provenance": {
            "graph_source": graph_source,
            "pid": os.getpid(),
            "scheduler": net.scheduler,
        },
    }
    # Composite algorithms attach a RoundLedger; serialize the phase
    # breakdown next to metrics, never inside (phases are deterministic,
    # but the metrics dict is the pinned cross-path comparison surface).
    ledger = getattr(result, "ledger", None)
    if ledger is not None and getattr(ledger, "phases", None):
        record["phases"] = ledger.to_dicts()
    return record


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: a trial dict plus an optional pre-built graph.

    ``payload["kind"] == BUILD_KIND`` marks build-only work (see
    :func:`execute_build`).  Otherwise ``payload["graph"]`` is ``None``
    (build here), a :class:`~.graphstore.ShmGraphRef` (attach zero-copy),
    or the store's :class:`~repro.graphs.generators.GeneratedGraph` (by
    reference on the serial backend, pickled by the others).
    """
    from .graphstore import resolve_graph

    if payload.get("kind") == BUILD_KIND:
        return execute_build(payload)
    gen, source = resolve_graph(payload.get("graph"))
    return execute_trial(payload["trial"], gen=gen, graph_source=source)
