"""Content-addressed store of built graph instances, shared across workers.

Barenboim–Elkin's pipeline is staged: one graph (and its decomposition)
feeds many downstream algorithm runs.  The sweep engine mirrors that shape:
an ablation sweep varies algorithm parameters over the *same* graphs, so
rebuilding each instance per trial wastes most of the wall clock.  The
:class:`GraphStore` dedups graph construction by
:meth:`repro.experiments.spec.TrialSpec.graph_key` — i.e. the
``(family, family_params, seed)`` content the builder actually sees.

The store never builds a graph itself; it owns, hands out and counts the
graphs the executor built.  The runner dispatches one build-only payload
per shared graph: the executor builds it, publishes the segment under a
parent-chosen name (or returns the graph object), and the parent
**adopts** the result — :meth:`GraphStore.adopt_segment` /
:meth:`GraphStore.adopt_graph` — so it owns segments it did not build.
:meth:`GraphStore.expect_segment` records every name promised to a worker
*before* the build is dispatched, so :meth:`close` can reclaim segments
whose build result never came back (interrupt or pool crash mid-sweep).
Each consumer then gets its payload ``graph`` from :meth:`GraphStore.mint`,
one of two ways:

* **shared memory** (local pool): the CSR arrays live once per unique
  graph in a segment written by :meth:`repro.graphs.graph.Graph.to_shm`
  and every worker attaches zero-copy with
  :meth:`~repro.graphs.graph.Graph.from_shm` (a per-process attach cache
  keeps one attachment per segment);
* **graph object** (the serial backend, remote workers, ``REPRO_NO_SHM=1``
  or platforms without ``multiprocessing.shared_memory``): the built
  :class:`~repro.graphs.generators.GeneratedGraph` rides inside the trial
  payload — by reference on the serial backend, pickled into each sharing
  trial's payload by a pool or the socket wire (which saves the builds,
  not the copies).

Which transport a sweep gets is an *executor capability*, not a user
choice: backends advertise ``supports_shm``, and the runner hands graph
objects to any backend whose workers cannot map this host's memory
(``SocketExecutor`` — remote processes can never attach a
coordinator-local segment) or need no copy at all (``SerialExecutor``).

All transports produce byte-identical CSR arrays (shm attach is a view of
the same bytes, pickling round-trips them), so trial metrics never depend
on the transport — the equivalence suite pins that down.  Build/reuse
accounting is likewise transport-independent: a graph counts one *build*
when it is adopted and one *reuse* per consumer beyond the first.

The store owns its segments: :meth:`close` (or use as a context manager)
closes and unlinks everything it adopted, plus everything it
still expects, and evicts this process's attach-cache entries for those
segments.  Worker processes never unlink; a worker that dies mid-trial
costs nothing because the parent still holds (or reclaims) the segment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import InvalidParameterError
from ..graphs import GeneratedGraph
from ..graphs.graph import Graph

__all__ = ["GraphStore", "ShmGraphRef", "shm_available"]

#: environment switch: truthy disables shared memory (pickle fallback)
NO_SHM_ENV = "REPRO_NO_SHM"

_shm_probe: Optional[bool] = None


def _no_shm_requested() -> bool:
    """True when ``REPRO_NO_SHM`` is set to something truthy.

    ``0``/``false``/``no``/empty mean "not disabled" — a user exporting
    ``REPRO_NO_SHM=0`` wants shared memory on, not a silent fallback.
    """
    return os.environ.get(NO_SHM_ENV, "").strip().lower() not in (
        "", "0", "false", "no",
    )


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` actually works here.

    Probes once per process by creating (and immediately unlinking) a tiny
    segment — importing the module is not enough on platforms without a
    usable ``/dev/shm``.
    """
    global _shm_probe
    if _shm_probe is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=8)
            seg.close()
            seg.unlink()
            _shm_probe = True
        except Exception:
            _shm_probe = False
    return _shm_probe


@dataclass(frozen=True)
class ShmGraphRef:
    """Picklable pointer to a published graph segment.

    Carries the :class:`~repro.graphs.generators.GeneratedGraph` metadata
    (certified arboricity bound, family name, params) alongside the segment
    name, so a worker can reassemble the full instance without touching the
    family builder.
    """

    graph_key: str
    shm_name: str
    name: str
    arboricity_bound: int
    params: Dict[str, object]


#: worker-side attach cache: one zero-copy attachment per segment per
#: process, keyed by ``(segment name, graph key)`` — the content key keeps
#: a recycled OS segment name from ever serving a stale graph
_ATTACHED: Dict[Tuple[str, str], GeneratedGraph] = {}


def attach_graph(ref: ShmGraphRef) -> GeneratedGraph:
    """Attach to a published graph (cached per process, one map per segment).

    The cache key includes the graph's content key: if the OS recycles a
    segment name for different content, the stale attachment under that
    name is evicted and the new segment is mapped fresh.
    """
    cache_key = (ref.shm_name, ref.graph_key)
    gen = _ATTACHED.get(cache_key)
    if gen is None:
        detach_segments([ref.shm_name])  # drop any stale same-name entry
        gen = GeneratedGraph(
            Graph.from_shm(ref.shm_name),
            ref.arboricity_bound,
            ref.name,
            dict(ref.params),
        )
        _ATTACHED[cache_key] = gen
    return gen


def detach_segments(names: Iterable[str]) -> None:
    """Evict this process's attach-cache entries for the given segments.

    Called by :meth:`GraphStore.close` so a long-lived process that runs
    several sweeps does not accumulate dead segment attachments (each one
    pins a mapping of the reclaimed segment until process exit).
    """
    names = set(names)
    for key in [k for k in _ATTACHED if k[0] in names]:
        del _ATTACHED[key]


def resolve_graph(
    graph: object,
) -> Tuple[Optional[GeneratedGraph], str]:
    """Turn a trial payload's ``graph`` field into an instance + provenance.

    Returns ``(gen, source)`` where ``source`` is ``"shm"`` (attached),
    ``"store"`` (a graph object the store handed out, however it
    travelled), or ``"built"`` (``None`` — the executor must run the family
    builder itself).
    """
    if graph is None:
        return None, "built"
    if isinstance(graph, ShmGraphRef):
        return attach_graph(graph), "shm"
    if isinstance(graph, GeneratedGraph):
        return graph, "store"
    raise TypeError(f"unsupported graph payload: {type(graph).__name__}")


def _unlink_segment(name: str) -> None:
    """Best-effort unlink of a segment by name (absent is fine)."""
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # raced with another unlinker
        pass


class GraphStore:
    """Parent-side store of adopted graphs; see the module docstring.

    Parameters
    ----------
    use_shm:
        ``True``/``False`` forces the transport; ``None`` (default) uses
        shared memory when it is available and ``REPRO_NO_SHM`` is unset.
    on_event:
        Optional callback ``(event, **fields)`` fired for every lifecycle
        transition (``expect``, ``adopt``, ``evict``, ``close``).  The
        sweep runner wires this to its JSONL trace writer; the store only
        ever calls it from the parent process, so a single-writer trace
        stays single-writer.

    Accounting (identical across transports by construction):

    * ``builds`` — graphs adopted from build payloads;
    * ``reuses`` — consumers served beyond each graph's first;
    * ``build_s`` — wall seconds the executors spent inside the family
      builders;
    * ``live_peak`` — the most in-process graph objects ever held at once
      (the object transport's memory watermark; segments and the
      worker-side copies behind them are not in-process copies).
    """

    def __init__(self, use_shm: Optional[bool] = None, on_event=None):
        if use_shm is None:
            use_shm = shm_available() and not _no_shm_requested()
        self.use_shm = bool(use_shm)
        self._on_event = on_event
        self._graphs: Dict[str, GeneratedGraph] = {}
        self._segments: Dict[str, object] = {}  # graph_key -> SharedMemory
        #: graph_key -> (name, arboricity_bound, params) of adopted segments
        self._meta: Dict[str, tuple] = {}
        #: graph_key -> segment name promised to a worker build that has not
        #: been adopted yet; close() reclaims these even if no result landed
        self._expected: Dict[str, str] = {}
        #: graph keys that already served their first consumer
        self._used: set = set()
        self.builds = 0
        self.reuses = 0
        self.build_s = 0.0
        self.live_peak = 0

    def __len__(self) -> int:
        return len(self._graphs)

    def _note(self, event: str, **fields) -> None:
        if self._on_event is not None:
            self._on_event(event, **fields)

    # -- accounting ------------------------------------------------------
    def _count_use(self, gkey: str) -> None:
        if gkey in self._used:
            self.reuses += 1
        else:
            self._used.add(gkey)

    def _track_live(self) -> None:
        if len(self._graphs) > self.live_peak:
            self.live_peak = len(self._graphs)

    # -- executor-built graphs (the build payloads' hand-off) -------------
    def expect_segment(self, gkey: str, shm_name: str) -> None:
        """Record a segment name promised to a worker build, pre-dispatch.

        Guarantees cleanup: :meth:`close` unlinks expected-but-unadopted
        names, so an interrupt between the worker's ``to_shm`` and the
        parent's adoption leaks nothing.
        """
        self._expected[gkey] = shm_name
        self._note("expect", graph=gkey[:12], segment=shm_name)

    def adopt_segment(
        self,
        gkey: str,
        shm_name: str,
        name: str,
        arboricity_bound: int,
        params: Dict[str, object],
        build_s: float = 0.0,
    ) -> None:
        """Take ownership of a segment a worker published.

        The parent attaches (so the handle's lifetime is the store's);
        from here on :meth:`mint` serves refs to the segment and
        :meth:`close` unlinks it.
        """
        from multiprocessing import shared_memory

        self._expected.pop(gkey, None)
        if gkey in self._segments:  # pragma: no cover - scheduler invariant
            raise InvalidParameterError(
                f"GraphStore.adopt_segment: graph {gkey[:12]}… already held"
            )
        self._segments[gkey] = shared_memory.SharedMemory(name=shm_name)
        self._meta[gkey] = (name, int(arboricity_bound), dict(params))
        self.builds += 1
        self.build_s += build_s
        self._note(
            "adopt",
            graph=gkey[:12],
            segment=shm_name,
            transport="shm",
            build_s=round(build_s, 6),
        )

    def adopt_graph(
        self, gkey: str, gen: GeneratedGraph, build_s: float = 0.0
    ) -> None:
        """Take ownership of a built graph object (no shared memory)."""
        self._expected.pop(gkey, None)
        self._graphs[gkey] = gen
        self.builds += 1
        self.build_s += build_s
        self._track_live()
        self._note(
            "adopt",
            graph=gkey[:12],
            transport="object",
            build_s=round(build_s, 6),
        )

    # -- consumers ---------------------------------------------------------
    def mint(self, gkey: str) -> object:
        """One consumer's payload ``graph`` value for an already-held graph.

        A :class:`ShmGraphRef` when the graph lives in a segment, the
        in-process :class:`~repro.graphs.generators.GeneratedGraph`
        otherwise (a pool or the socket wire pickles it into the payload;
        the serial backend takes it by reference).  Every mint beyond a
        graph's first counts one reuse.
        """
        seg = self._segments.get(gkey)
        if seg is not None:
            self._count_use(gkey)
            name, bound, params = self._meta[gkey]
            return ShmGraphRef(
                graph_key=gkey,
                shm_name=seg.name,
                name=name,
                arboricity_bound=bound,
                params=dict(params),
            )
        gen = self._graphs.get(gkey)
        if gen is None:
            raise InvalidParameterError(
                f"GraphStore.mint: graph {gkey[:12]}… is not held "
                "(never adopted, or already discarded)"
            )
        self._count_use(gkey)
        return gen

    def discard(self, gkey: str) -> None:
        """Drop the in-process copy of one graph (adopted segments stay).

        The runner calls this once a graph's last pending trial has its
        payload, so a long sweep holds only the shared graphs still ahead
        of it instead of every unique graph it ever built.
        """
        if self._graphs.pop(gkey, None) is not None:
            self._note("evict", graph=gkey[:12])

    def close(self) -> None:
        """Release every owned segment (close + unlink), reclaim every
        expected-but-unadopted one, drop graphs, and evict this process's
        attach-cache entries for all of them."""
        segments, self._segments = self._segments, {}
        expected, self._expected = self._expected, {}
        self._graphs.clear()
        self._meta.clear()
        names: List[str] = []
        for seg in segments.values():
            names.append(seg.name)
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # already reclaimed (double close)
                pass
        for name in expected.values():
            # promised to a worker but never adopted: an interrupt or pool
            # crash mid-sweep — the worker may still have written it
            names.append(name)
            _unlink_segment(name)
        detach_segments(names)
        if segments or expected:
            self._note(
                "close", segments=len(segments), reclaimed=len(expected)
            )

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
