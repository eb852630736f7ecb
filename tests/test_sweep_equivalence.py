"""Acceptance: sweep records are byte-identical — same content keys, same
metrics — across every execution path of the staged engine: serial (graph
objects handed over in-process), parallel over shared memory, parallel over
pickled graph objects, over a socket coordinator with attached worker
processes, and from a cache another path warmed.

Stage timings and provenance legitimately differ per path; they live
outside ``metrics`` precisely so everything the cache and the aggregate
reports consume cannot.  GraphStore build/reuse accounting, by contrast,
must NOT differ per path — the same spec counts the same builds and reuses
whichever executor or transport ran it, for shared and single-use graphs
alike.
"""

import pytest

from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    SocketExecutor,
    SweepSpec,
    grid_scenarios,
    report_table,
    run_sweep,
    shm_available,
    spawn_local_workers,
)


def _spec():
    """Multi-kind ablation: several algorithm-param cells per shared graph.

    Seeds are explicit: scenario-derived seeds fold the algorithm cell into
    their derivation (so adding a scenario never shifts its neighbours'),
    which means only explicit seeds make different algorithm cells land on
    the *same* graph instances — the shape graph sharing exists for.
    """
    scenarios = grid_scenarios(
        families=[
            {"name": "forest_union", "n": 40, "a": 2},
            {"name": "tree", "n": 40},
        ],
        algorithms=[
            {"name": "cor46", "eta": 0.5},
            {"name": "cor46", "eta": 1.0},
            {"name": "forests", "epsilon": 0.5},
            {"name": "luby_mis"},
        ],
        seeds=[0, 1],
    )
    return SweepSpec("equivalence", scenarios)


def _single_use_spec():
    """Derived seeds never collide across scenarios: every graph is
    consumed by exactly one trial."""
    return SweepSpec(
        "unshared",
        [ScenarioSpec(family="tree", algorithm="cor46",
                      family_params={"n": 40}, num_seeds=3)],
    )


def _fingerprint(result):
    """Everything the cache/report layer sees: ordered (key, metrics)."""
    return [(tr.key, tr.metrics) for tr in result]


def _accounting(result):
    return result.graph_builds, result.graph_reuses


#: 4 unique graphs (2 families x 2 seeds), each shared by 4 algorithm cells
SHARED = (4, len(_spec().trials()) - 4)


class TestExecutionPathEquivalence:
    def test_all_paths_produce_identical_records(self, monkeypatch):
        spec = _spec()
        serial = run_sweep(spec)
        parallel_shm = run_sweep(spec, workers=2)
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        parallel_pickle = run_sweep(spec, workers=2)
        monkeypatch.delenv("REPRO_NO_SHM")

        baseline = _fingerprint(serial)
        expected = report_table(serial)
        for other in (parallel_shm, parallel_pickle):
            assert _fingerprint(other) == baseline
            # and the aggregate presentation layer agrees byte for byte
            assert report_table(other) == expected

        # each path really was the path it claims to be
        assert {t.graph_source for t in serial} == {"store"}
        if shm_available():
            assert {t.graph_source for t in parallel_shm} == {"shm"}
        assert {t.graph_source for t in parallel_pickle} == {"store"}

        # the build/reuse accounting is identical across executors and
        # transports
        for res in (serial, parallel_shm, parallel_pickle):
            assert _accounting(res) == SHARED
            assert res.graph_build_s > 0.0

    def test_socket_loopback_matches_every_local_path(self):
        """The same specs through a socket coordinator with two loopback
        ``repro worker`` processes.  Remote workers cannot attach the
        parent's shm, so shared graphs ride the wire pickled — and the
        records and the accounting are still identical."""
        specs = (_spec(), _single_use_spec())
        serial = [run_sweep(spec) for spec in specs]
        ex = SocketExecutor(min_workers=2)
        procs = spawn_local_workers(ex.host, ex.port, 2)
        try:
            ex.wait_for_workers(2, timeout=60)
            remote = [run_sweep(spec, executor=ex) for spec in specs]
        finally:
            ex.close()
            for p in procs:
                p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=10)
                except Exception:
                    p.kill()
        for local, wire in zip(serial, remote, strict=True):
            assert _fingerprint(wire) == _fingerprint(local)
            assert report_table(wire) == report_table(local)
            assert _accounting(wire) == _accounting(local)
            assert wire.executor == "socket"
            assert local.executor == "serial"
        assert {t.graph_source for t in remote[0]} == {"store"}
        assert _accounting(remote[0]) == SHARED
        assert {t.graph_source for t in remote[1]} == {"built"}

    def test_cache_warmed_by_one_path_serves_every_other(self, tmp_path):
        spec = _spec()
        cache_dir = str(tmp_path / "cache")
        fresh = run_sweep(spec, cache=ResultCache(cache_dir), workers=2)
        assert fresh.cache_misses == len({t.key() for t in spec.trials()})
        for kwargs in (
            {},
            {"workers": 2},
            {"workers": 2, "use_shm": False},
        ):
            again = run_sweep(spec, cache=ResultCache(cache_dir), **kwargs)
            assert again.hit_rate == 1.0
            assert _fingerprint(again) == _fingerprint(fresh)
            assert report_table(again) == report_table(fresh)
            assert _accounting(again) == (0, 0)  # nothing ran, nothing built

    @pytest.mark.skipif(not shm_available(), reason="no shared memory here")
    def test_forced_shm_off_matches_forced_on(self):
        # two algorithms over the same explicit seeds: each graph is shared,
        # so pool runs hand it out (shm or graph object) instead of
        # rebuilding it
        spec = SweepSpec(
            "shm-toggle",
            [
                ScenarioSpec(family="planar", algorithm="mis_arboricity",
                             family_params={"n": 36}, seeds=[0, 1]),
                ScenarioSpec(family="planar", algorithm="forests",
                             family_params={"n": 36}, seeds=[0, 1]),
            ],
        )
        on = run_sweep(spec, workers=2, use_shm=True)
        off = run_sweep(spec, workers=2, use_shm=False)
        assert _fingerprint(on) == _fingerprint(off)
        assert {t.graph_source for t in on} == {"shm"}
        assert {t.graph_source for t in off} == {"store"}
        assert _accounting(on) == _accounting(off) == (2, 2)

    def test_single_use_graphs_build_in_the_workers(self, monkeypatch):
        # every graph here is single-use: no executor builds it ahead of
        # its trial, so whoever runs the trial builds it — serial included
        spec = _single_use_spec()
        serial = run_sweep(spec)
        par = run_sweep(spec, workers=2)
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        par_pickle = run_sweep(spec, workers=2)
        for res in (serial, par, par_pickle):
            assert _fingerprint(res) == _fingerprint(serial)
            assert report_table(res) == report_table(serial)
            assert {t.graph_source for t in res} == {"built"}
            assert _accounting(res) == (0, 0)  # nothing was worth sharing
