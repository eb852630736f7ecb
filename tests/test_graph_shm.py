"""Graph shared-memory interchange: ``to_shm``/``from_shm`` round trips,
segment lifecycle, and the GraphStore adopt/mint/attach/fallback paths."""

import pickle
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.experiments import GraphStore, ShmGraphRef, shm_available
from repro.experiments.graphstore import resolve_graph
from repro.experiments.registry import BUILD_KIND, execute_build
from repro.experiments.spec import TrialSpec
from repro.graphs import (
    erdos_renyi,
    forest_union,
    grid,
    hypercube,
    planar_triangulation,
    random_geometric,
    random_tree,
    ring,
)
from repro.graphs.graph import Graph

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

#: generator family -> builder(n, seed), exercised by the round-trip tests
_BUILDERS = {
    "forest_union": lambda n, seed: forest_union(n, 3, seed=seed),
    "planar": lambda n, seed: planar_triangulation(n, seed=seed),
    "tree": lambda n, seed: random_tree(n, seed=seed),
    "ring": lambda n, seed: ring(n),
    "grid": lambda n, seed: grid(max(2, n // 8), 8),
    "hypercube": lambda n, seed: hypercube(max(2, (n - 1).bit_length())),
    "erdos_renyi": lambda n, seed: erdos_renyi(n, 0.05, seed=seed),
    "random_geometric": lambda n, seed: random_geometric(n, 0.15, seed=seed),
}


def _assert_byte_identical(a: Graph, b: Graph) -> None:
    """The CSR arrays, ids, and derived views of two graphs match exactly."""
    assert a == b
    assert a.vertices == b.vertices
    assert a.edges == b.edges
    assert bytes(a.csr()[0]) == bytes(b.csr()[0])
    assert bytes(a.csr()[1]) == bytes(b.csr()[1])
    assert a.duplicate_edges_dropped == b.duplicate_edges_dropped
    assert a.max_degree == b.max_degree


def _adopt_built(store: GraphStore, trial: TrialSpec) -> str:
    """Run ``trial``'s build payload the way an executor does and let the
    store adopt the result (a segment, or the graph object without shm).
    Returns the graph key."""
    gkey = trial.graph_key()
    shm_name = f"rgtest-{uuid.uuid4().hex[:8]}" if store.use_shm else None
    if shm_name:
        store.expect_segment(gkey, shm_name)
    rec = execute_build(
        {"kind": BUILD_KIND, "trial": trial.to_dict(), "shm_name": shm_name}
    )
    if shm_name:
        store.adopt_segment(
            gkey, shm_name, name=rec["name"],
            arboricity_bound=rec["arboricity_bound"], params=rec["params"],
            build_s=rec["build_s"],
        )
    else:
        store.adopt_graph(gkey, rec["graph"], build_s=rec["build_s"])
    return gkey


def _round_trip(g: Graph) -> None:
    shm = g.to_shm()
    try:
        attached = Graph.from_shm(shm.name)
        assert attached.shm_backed and not g.shm_backed
        _assert_byte_identical(g, attached)
        del attached
    finally:
        shm.close()
        shm.unlink()


class TestRoundTrip:
    @settings(max_examples=24, deadline=None)
    @given(
        family=st.sampled_from(sorted(_BUILDERS)),
        n=st.integers(min_value=8, max_value=96),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_families_round_trip_byte_identical(self, family, n, seed):
        _round_trip(_BUILDERS[family](n, seed).graph)

    def test_empty_and_edgeless_graphs(self):
        _round_trip(Graph.empty(0))
        _round_trip(Graph.empty(17))

    def test_non_contiguous_ids_round_trip(self):
        g = forest_union(60, 3, seed=1).graph
        sub = g.induced_subgraph([3, 5, 9, 10, 41, 42, 57])
        assert not sub.ids_contiguous
        _round_trip(sub)

    def test_attached_graph_supports_hot_paths(self):
        gen = forest_union(120, 3, seed=2)
        shm = gen.graph.to_shm()
        try:
            h = Graph.from_shm(shm.name)
            # id API, index API, and derived-graph paths all work on views
            assert h.neighbors(5) == gen.graph.neighbors(5)
            assert h.degree(5) == gen.graph.degree(5)
            assert [a.tolist() for a in h.csr()] == [
                a.tolist() for a in gen.graph.csr()
            ]
            assert h.induced_subgraph(range(40)) == gen.graph.induced_subgraph(
                range(40)
            )
            rel, _ = h.relabeled()
            assert rel.n == h.n
            del h, rel
        finally:
            shm.close()
            shm.unlink()

    def test_pickling_attached_graph_materialises(self):
        g = planar_triangulation(50, seed=0).graph
        shm = g.to_shm()
        try:
            h = Graph.from_shm(shm.name)
            copy = pickle.loads(pickle.dumps(h))
            del h
        finally:
            shm.close()
            shm.unlink()
        # the copy owns its arrays: fully usable after the segment is gone
        assert not copy.shm_backed
        _assert_byte_identical(g, copy)


class TestLifecycle:
    def test_segment_cleanup_on_close_unlink(self):
        g = forest_union(40, 2, seed=0).graph
        shm = g.to_shm()
        name = shm.name
        h = Graph.from_shm(name)
        del h  # releases the attachment's views
        shm.close()
        shm.unlink()
        with pytest.raises(FileNotFoundError):
            Graph.from_shm(name)

    def test_bad_segment_rejected(self):
        from multiprocessing import shared_memory

        # too short for a header, and all zeros (no magic)
        rejects = [bytes(8), bytes(64)]
        g = forest_union(50, 2, seed=3).graph
        for graph in (g, g.induced_subgraph(range(1, 50, 2))):
            full = graph.to_shm()
            try:
                data = bytes(full.buf[: full.size])
            finally:
                full.close()
                full.unlink()
            # cut short: the header promises more words than remain
            rejects += [data[:-8], data[:-64]]
            # a header whose len(nbr) disagrees with the offsets
            words = np.frombuffer(data, dtype=np.int64).copy()
            words[3] -= 2
            rejects.append(words.tobytes())
        for payload in rejects:
            seg = shared_memory.SharedMemory(create=True, size=len(payload))
            try:
                seg.buf[: len(payload)] = payload
                with pytest.raises(InvalidParameterError):
                    Graph.from_shm(seg.name)
            finally:
                seg.close()
                seg.unlink()

    def test_graphstore_close_unlinks_everything(self):
        trial = TrialSpec(family="tree", algorithm="cor46", seed=1,
                          family_params={"n": 30})
        store = GraphStore(use_shm=True)
        ref = store.mint(_adopt_built(store, trial))
        assert isinstance(ref, ShmGraphRef)
        name = ref.shm_name
        # attachable while the store is open
        gen, source = resolve_graph(ref)
        assert source == "shm"
        assert gen.graph.shm_backed
        assert gen.n == 30
        del gen
        # close() unlinks the segment AND evicts this process's attach
        # cache entry for it (no manual cache surgery needed)
        from repro.experiments import graphstore as gs

        store.close()
        assert (name, ref.graph_key) not in gs._ATTACHED
        with pytest.raises(FileNotFoundError):
            Graph.from_shm(name)
        assert store.close() is None  # idempotent

    def test_adopted_segment_is_owned_like_a_published_one(self):
        """adopt_segment: the parent takes over a segment it did not build
        (a worker's build-payload hand-off) — minting refs and unlinking on
        close are the store's job from then on."""
        gen = forest_union(40, 2, seed=3)
        trial = TrialSpec(family="forest_union", algorithm="cor46", seed=3,
                          family_params={"n": 40, "a": 2})
        gkey = trial.graph_key()
        # "worker side": publish under a chosen name, drop the local map
        seg = gen.graph.to_shm()
        name = seg.name
        seg.close()
        # "parent side": adopt, mint, consume
        store = GraphStore(use_shm=True)
        store.adopt_segment(gkey, name, name=gen.name,
                            arboricity_bound=gen.arboricity_bound,
                            params=dict(gen.params), build_s=0.01)
        assert store.builds == 1
        assert store.build_s == pytest.approx(0.01)
        ref = store.mint(gkey)
        assert isinstance(ref, ShmGraphRef) and ref.shm_name == name
        attached, source = resolve_graph(ref)
        assert source == "shm"
        assert attached.graph == gen.graph
        # first mint consumed the build; the second is a reuse
        store.mint(gkey)
        assert (store.builds, store.reuses) == (1, 1)
        del attached
        store.close()
        with pytest.raises(FileNotFoundError):
            Graph.from_shm(name)

    def test_expected_but_unadopted_segments_are_reclaimed_on_close(self):
        """A segment name promised to a worker whose build result never
        came back (interrupt / pool crash mid-overlap) is unlinked by
        close() even though the store never attached it."""
        from multiprocessing import shared_memory

        g = forest_union(30, 2, seed=0).graph
        seg = g.to_shm()
        name = seg.name
        seg.close()  # the "worker" wrote it and went away
        store = GraphStore(use_shm=True)
        store.expect_segment("deadbeef", name)
        store.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # absent segments are fine too (worker died before to_shm)
        store2 = GraphStore(use_shm=True)
        store2.expect_segment("deadbeef", name)
        store2.close()  # no raise


class TestAttachCache:
    """The worker-side attach cache must never serve a stale graph and must
    not accumulate dead attachments across sweeps in a long-lived process."""

    def _publish(self, gen, name=None):
        seg = gen.graph.to_shm(name=name)
        seg.close()
        return ShmGraphRef(
            graph_key=TrialSpec(
                family=gen.name, algorithm="x", seed=0,
                family_params=dict(gen.params),
            ).graph_key(),
            shm_name=seg.name,
            name=gen.name,
            arboricity_bound=gen.arboricity_bound,
            params=dict(gen.params),
        )

    def test_recycled_segment_name_never_serves_stale_graph(self):
        """If the OS hands a later sweep the same segment name for
        *different* content, the content-keyed cache evicts the stale
        attachment instead of serving it."""
        from repro.experiments import graphstore as gs
        from repro.experiments.graphstore import _unlink_segment

        a = forest_union(40, 2, seed=0)
        ref_a = self._publish(a)
        try:
            gen_a, _ = resolve_graph(ref_a)
            assert gen_a.n == 40
            # sweep 1 ends without evicting (simulating the old bug's
            # environment: a long-lived process with a dirty cache)
            _unlink_segment(ref_a.shm_name)
            # sweep 2: the OS recycles the exact segment name for new bytes
            b = random_tree(24, seed=9)
            seg_b = b.graph.to_shm(name=ref_a.shm_name)
            seg_b.close()
            ref_b = ShmGraphRef(
                graph_key="different-content-key",
                shm_name=ref_a.shm_name,
                name=b.name,
                arboricity_bound=b.arboricity_bound,
                params=dict(b.params),
            )
            gen_b, _ = resolve_graph(ref_b)
            assert gen_b.n == 24  # the new graph, not the stale one
            assert gen_b.graph == b.graph
            # and the stale same-name entry was evicted, not retained
            stale = [k for k in gs._ATTACHED
                     if k[0] == ref_a.shm_name and k[1] == ref_a.graph_key]
            assert stale == []
        finally:
            gs.detach_segments([ref_a.shm_name])
            _unlink_segment(ref_a.shm_name)

    def test_two_sweeps_do_not_accumulate_attachments(self):
        """GraphStore.close() evicts this process's attach-cache entries
        for its segments, so back-to-back sweeps leave no dead entries."""
        from repro.experiments import graphstore as gs

        before = dict(gs._ATTACHED)
        for seed in (0, 1):
            trial = TrialSpec(family="tree", algorithm="cor46", seed=seed,
                              family_params={"n": 24})
            with GraphStore(use_shm=True) as store:
                ref = store.mint(_adopt_built(store, trial))
                gen, _ = resolve_graph(ref)
                assert (ref.shm_name, ref.graph_key) in gs._ATTACHED
                del gen
        assert gs._ATTACHED == before  # nothing survived either sweep


class TestStoreFallbacks:
    def test_store_dedups_builds_by_graph_key(self):
        store = GraphStore(use_shm=False)
        t1 = TrialSpec(family="tree", algorithm="cor46", seed=1,
                       family_params={"n": 30})
        t2 = TrialSpec(family="tree", algorithm="be08", seed=1,
                       family_params={"n": 30})  # same graph, other algorithm
        t3 = TrialSpec(family="tree", algorithm="cor46", seed=2,
                       family_params={"n": 30})  # different seed: new graph
        assert t1.graph_key() == t2.graph_key() != t3.graph_key()
        shared = _adopt_built(store, t1)
        other = _adopt_built(store, t3)
        g1 = store.mint(shared)
        assert store.mint(t2.graph_key()) is g1
        assert store.mint(other) is not g1
        assert (store.builds, store.reuses) == (2, 1)
        store.discard(shared)
        with pytest.raises(InvalidParameterError, match="not held"):
            store.mint(shared)

    def test_no_shm_env_forces_pickle_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        store = GraphStore()
        assert store.use_shm is False
        trial = TrialSpec(family="tree", algorithm="cor46", seed=0,
                          family_params={"n": 24})
        payload = store.mint(_adopt_built(store, trial))
        # the graph itself rides in the payload (a pool pickles it)
        gen, source = resolve_graph(payload)
        assert source == "store"
        assert not gen.graph.shm_backed
        # fallback equality: pickle round trip == shm round trip == built
        copy = pickle.loads(pickle.dumps(gen))
        _assert_byte_identical(gen.graph, copy.graph)
        assert copy.arboricity_bound == gen.arboricity_bound
        store.close()
