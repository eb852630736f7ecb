"""The sweep engine: specs, content-addressed cache, staged runner,
aggregation, and the ``repro sweep`` CLI surface."""

import json
import os
import subprocess
import sys
import time

import pytest

from typing import ClassVar

from repro.cli import main
from repro.errors import InvalidParameterError
from repro.experiments import (
    ALGORITHMS,
    STAGES,
    AlgorithmSpec,
    ResultCache,
    ScenarioSpec,
    SweepSpec,
    TrialSpec,
    default_workers,
    derive_seed,
    execute_trial,
    grid_scenarios,
    percentile,
    report_table,
    run_sweep,
    stage_timing_table,
    summarize,
)


def tiny_spec(n=48, num_seeds=2):
    """A fast multi-family, multi-algorithm sweep for tests."""
    return SweepSpec(
        "tiny",
        grid_scenarios(
            families=[
                {"name": "forest_union", "n": n, "a": 2},
                {"name": "tree", "n": n},
            ],
            algorithms=[{"name": "cor46"}, {"name": "mis_arboricity"}],
            num_seeds=num_seeds,
        ),
    )


class TestSpec:
    def test_json_round_trip(self):
        spec = tiny_spec()
        again = SweepSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert [t.key() for t in again.trials()] == [
            t.key() for t in spec.trials()
        ]

    def test_trial_key_is_stable_and_param_sensitive(self):
        t = TrialSpec(family="tree", algorithm="cor46", seed=3,
                      family_params={"n": 50})
        same = TrialSpec.from_dict(t.to_dict())
        assert t.key() == same.key()
        other = TrialSpec(family="tree", algorithm="cor46", seed=3,
                          family_params={"n": 51})
        assert t.key() != other.key()
        assert t.key() != TrialSpec(family="tree", algorithm="be08", seed=3,
                                    family_params={"n": 50}).key()

    def test_derived_seeds_are_deterministic_and_scenario_local(self):
        sc = ScenarioSpec(family="tree", algorithm="cor46",
                          family_params={"n": 30}, num_seeds=3)
        assert sc.resolved_seeds() == sc.resolved_seeds()
        assert len(set(sc.resolved_seeds())) == 3
        # a different cell derives different seeds (no shared counter)
        other = ScenarioSpec(family="tree", algorithm="be08",
                             family_params={"n": 30}, num_seeds=3)
        assert sc.resolved_seeds() != other.resolved_seeds()

    def test_explicit_seeds_win(self):
        sc = ScenarioSpec(family="tree", algorithm="cor46", seeds=[7, 9])
        assert [t.seed for t in sc.trials()] == [7, 9]

    def test_derive_seed_range(self):
        for i in range(50):
            s = derive_seed("x", i)
            assert 0 <= s < 2**31

    def test_grid_scenarios_cartesian(self):
        spec = tiny_spec(num_seeds=3)
        assert len(spec.scenarios) == 4
        assert len(spec.trials()) == 12


class TestExecuteTrial:
    def test_record_shape_and_verification(self):
        t = TrialSpec(family="forest_union", algorithm="cor46", seed=1,
                      family_params={"n": 40, "a": 2})
        rec = execute_trial(t.to_dict())
        assert rec["key"] == t.key()
        assert rec["metrics"]["verified"] is True
        assert rec["metrics"]["colors"] >= 1
        assert rec["metrics"]["n"] == 40
        json.dumps(rec)  # the record must be JSON-serialisable for the cache

    def test_unknown_algorithm(self):
        t = TrialSpec(family="tree", algorithm="nope")
        with pytest.raises(InvalidParameterError):
            execute_trial(t.to_dict())

    def test_unknown_family(self):
        t = TrialSpec(family="nope", algorithm="cor46")
        with pytest.raises(InvalidParameterError):
            execute_trial(t.to_dict())

    def test_bad_family_params(self):
        t = TrialSpec(family="tree", algorithm="cor46",
                      family_params={"bogus": 1})
        with pytest.raises(InvalidParameterError):
            execute_trial(t.to_dict())

    def test_deterministic_metrics(self):
        t = TrialSpec(family="forest_union", algorithm="luby_coloring",
                      seed=5, family_params={"n": 40, "a": 2})
        a = execute_trial(t.to_dict())["metrics"]
        b = execute_trial(t.to_dict())["metrics"]
        assert a == b

    def test_record_carries_stage_timings_and_provenance(self):
        t = TrialSpec(family="tree", algorithm="forests", seed=2,
                      family_params={"n": 40})
        rec = execute_trial(t.to_dict())
        assert tuple(rec["stages"]) == STAGES  # all four, in order
        assert all(v >= 0.0 for v in rec["stages"].values())
        assert rec["elapsed_s"] == pytest.approx(
            sum(rec["stages"].values()), abs=1e-6
        )
        assert rec["provenance"]["graph_source"] == "built"
        assert rec["provenance"]["pid"] == os.getpid()
        json.dumps(rec)  # stages/provenance must stay cacheable

    def test_wall_times_never_leak_into_metrics(self):
        t = TrialSpec(family="tree", algorithm="cor46", seed=0,
                      family_params={"n": 30})
        rec = execute_trial(t.to_dict())
        assert "stages" not in rec["metrics"]
        assert "elapsed_s" not in rec["metrics"]
        assert "provenance" not in rec["metrics"]


class TestCache:
    def test_put_get_and_persistence(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = ResultCache(path)
        assert cache.get("0" * 64) is None
        rec = {"key": "ab" + "0" * 62, "trial": {}, "metrics": {"rounds": 3}}
        cache.put(rec)
        assert cache.get(rec["key"]) == rec
        # a fresh instance reloads from disk
        again = ResultCache(path)
        assert again.get(rec["key"]) == rec
        assert again.stats() == (1, 0, 0)
        assert len(again) == 1

    def test_sharding_by_key_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put({"key": "aa" + "0" * 62, "metrics": {}})
        cache.put({"key": "bb" + "0" * 62, "metrics": {}})
        names = sorted(
            n for n in os.listdir(str(tmp_path / "cache"))
            if n.endswith(".jsonl")
        )
        assert names == ["aa.jsonl", "bb.jsonl"]

    def test_truncated_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = ResultCache(path)
        good = {"key": "cc" + "0" * 62, "metrics": {"rounds": 1}}
        cache.put(good)
        # simulate a crash mid-append: a truncated trailing line
        with open(os.path.join(path, "cc.jsonl"), "a", encoding="utf-8") as fh:
            fh.write('{"key": "cc11", "metr')
        again = ResultCache(path)
        assert again.get(good["key"]) == good
        assert again.corrupt_lines == 1
        # the damage is surfaced, not silently swallowed
        assert again.stats() == (1, 0, 1)

    def test_last_writer_wins_and_compact(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = ResultCache(path)
        key = "dd" + "0" * 62
        cache.put({"key": key, "metrics": {"rounds": 1}})
        cache.put({"key": key, "metrics": {"rounds": 2}})
        again = ResultCache(path)
        assert again.get(key)["metrics"]["rounds"] == 2
        assert again.compact() == 1  # one shadowed line dropped
        final = ResultCache(path)
        assert final.get(key)["metrics"]["rounds"] == 2

    def test_compact_keeps_concurrent_writer_records(self, tmp_path):
        """Regression: compact() must not rewrite shards from a stale
        in-memory view — a second writer's appends landed on disk after
        this process loaded, and used to be silently discarded."""
        path = str(tmp_path / "cache")
        writer_a = ResultCache(path)
        key_old = "ee" + "0" * 62
        writer_a.put({"key": key_old, "metrics": {"rounds": 1}})  # a is loaded

        # a second process appends to the same shard and shadows a's record
        writer_b = ResultCache(path)
        key_new = "ee" + "1" * 62
        writer_b.put({"key": key_new, "metrics": {"rounds": 9}})
        writer_b.put({"key": key_old, "metrics": {"rounds": 2}})

        dropped = writer_a.compact()  # stale view: must re-read, not rewrite
        assert dropped == 1  # only the shadowed key_old line goes

        fresh = ResultCache(path)
        assert fresh.get(key_new)["metrics"]["rounds"] == 9
        assert fresh.get(key_old)["metrics"]["rounds"] == 2
        # and the compacting instance refreshed its own view from disk
        assert writer_a.get(key_new)["metrics"]["rounds"] == 9
        assert writer_a.get(key_old)["metrics"]["rounds"] == 2


class TestRunner:
    def test_second_run_is_fully_cached_with_identical_report(self, tmp_path):
        """Acceptance: an identical re-invocation is served >= 90% from the
        cache and aggregates to byte-identical output."""
        spec = tiny_spec()
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_sweep(spec, cache=cache)
        assert first.cache_hits == 0
        assert first.cache_misses == first.num_trials == 8

        cache2 = ResultCache(str(tmp_path / "cache"))
        second = run_sweep(spec, cache=cache2)
        assert second.num_trials == first.num_trials
        assert second.hit_rate >= 0.9  # in fact 1.0
        assert second.cache_misses == 0
        assert report_table(second) == report_table(first)
        for a, b in zip(first, second, strict=True):
            assert a.metrics == b.metrics

    def test_no_cache_recomputes(self):
        spec = tiny_spec(num_seeds=1)
        res = run_sweep(spec)
        assert res.cache_hits == 0
        assert res.num_trials == 4
        assert all(not tr.cached for tr in res)

    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec(num_seeds=1)
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert [t.metrics for t in serial] == [t.metrics for t in parallel]

    def test_results_in_spec_order(self):
        spec = tiny_spec(num_seeds=1)
        res = run_sweep(spec)
        expected = [(t.family, t.algorithm, t.seed) for t in spec.trials()]
        got = [(t.trial.family, t.trial.algorithm, t.trial.seed) for t in res]
        assert got == expected

    def test_duplicate_trials_counted_once(self, tmp_path):
        """Regression: a sweep listing the same trial twice computes it once
        and must account exactly one miss (not one per occurrence)."""
        dup = SweepSpec(
            "dup",
            [ScenarioSpec(family="tree", algorithm="cor46",
                          family_params={"n": 30}, seeds=[3, 3])],
        )
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_sweep(dup, cache=cache)
        assert first.num_trials == 2  # both occurrences are reported...
        assert first.cache_misses == 1  # ...but the unique key missed once
        assert first.cache_hits == 0
        assert first.hit_rate == 0.0
        assert first.results[0].metrics == first.results[1].metrics

        second = run_sweep(dup, cache=ResultCache(str(tmp_path / "cache")))
        assert second.cache_hits == 1
        assert second.cache_misses == 0
        assert second.hit_rate == 1.0
        assert all(tr.cached for tr in second)

    def test_duplicate_trials_probe_the_cache_once(self, tmp_path):
        """Regression: the cache object's own hit/miss counters must agree
        with SweepResult — one probe per unique key, not per occurrence (a
        duplicated trial used to inflate ``ResultCache.hits``, making
        ``cache.stats()`` disagree with ``SweepResult.hit_rate``)."""
        dup = SweepSpec(
            "dup-stats",
            [ScenarioSpec(family="tree", algorithm="cor46",
                          family_params={"n": 30}, seeds=[5, 5, 5])],
        )
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_sweep(dup, cache=cache)
        assert cache.stats() == (0, 1, 0)
        assert cache.stats()[:2] == (first.cache_hits, first.cache_misses)

        cache2 = ResultCache(str(tmp_path / "cache"))
        second = run_sweep(dup, cache=cache2)
        assert cache2.stats() == (1, 0, 0)
        assert cache2.stats()[:2] == (second.cache_hits, second.cache_misses)
        assert second.hit_rate == 1.0

    def test_interrupted_sweep_resumes(self, tmp_path):
        """A cache warmed by a prefix of the sweep only recomputes the rest."""
        spec = tiny_spec()
        half = SweepSpec("half", spec.scenarios[:2])
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep(half, cache=cache)
        full = run_sweep(spec, cache=ResultCache(str(tmp_path / "cache")))
        assert full.cache_hits == len(half.trials())
        assert full.cache_misses == full.num_trials - len(half.trials())

    def test_workers_below_one_is_an_error(self):
        for bad in (0, -3):
            with pytest.raises(InvalidParameterError, match="workers"):
                run_sweep(tiny_spec(num_seeds=1), workers=bad)
        with pytest.raises(InvalidParameterError, match="workers"):
            run_sweep(tiny_spec(num_seeds=1), workers=2.0)


class TestOverlappedBuilds:
    """The build-payload pipeline: shared graphs built by the executor,
    streamed lazily, with bounded parent memory and airtight segment
    cleanup on interrupts."""

    @staticmethod
    def _shared_spec(num_graphs, n=60):
        """Every graph shared by two algorithm cells (explicit seeds)."""
        return SweepSpec(
            "overlap",
            grid_scenarios(
                families=[{"name": "forest_union", "n": n, "a": 2}],
                algorithms=[{"name": "cor46"}, {"name": "forests"}],
                seeds=list(range(num_graphs)),
            ),
        )

    @staticmethod
    def _spy_store(monkeypatch):
        """Capture the GraphStore instance run_sweep creates internally."""
        import repro.experiments.runner as runner_mod
        from repro.experiments import GraphStore

        created = []

        class Spy(GraphStore):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                created.append(self)

        monkeypatch.setattr(runner_mod, "GraphStore", Spy)
        return created

    def test_no_shm_pool_keeps_only_graphs_still_ahead(self, monkeypatch):
        """Regression: the pickle-fallback pool path used to materialise
        every payload (each holding the graph) before dispatch, so all
        shared graphs were live at once and the remaining-count eviction
        freed nothing.  With the lazy stream and its build-dispatch
        backpressure window (pool size + 2), the parent can never hold
        more than ``window + 1`` graphs at once, however fast the builds
        return — each copy is dropped with its last dispatched trial."""
        num_graphs = 8
        workers = 2
        window = workers + 2  # the runner's backpressure window
        created = self._spy_store(monkeypatch)
        res = run_sweep(self._shared_spec(num_graphs), workers=workers,
                        use_shm=False)
        (store,) = created
        assert res.graph_builds == num_graphs
        assert store.live_peak >= 1  # graphs really were adopted in-process
        assert store.live_peak <= window + 1
        assert store.live_peak < num_graphs
        assert len(store) == 0  # nothing survives the sweep

    def test_serial_keeps_only_graphs_still_ahead(self, monkeypatch):
        """The serial backend runs each build payload inline, ahead of the
        trials that use it, under the same backpressure window (1 + 2):
        the memory bound of the pool's object transport holds here too."""
        num_graphs = 8
        window = 1 + 2  # serial parallelism + the runner's slack
        created = self._spy_store(monkeypatch)
        res = run_sweep(self._shared_spec(num_graphs))
        (store,) = created
        assert res.executor == "serial"
        assert res.graph_builds == num_graphs
        assert {t.graph_source for t in res} == {"store"}
        assert not store.use_shm  # objects by reference, no segments
        assert 1 <= store.live_peak <= window + 1
        assert store.live_peak < num_graphs
        assert len(store) == 0

    def test_interrupt_mid_overlap_leaks_no_segments(self, monkeypatch):
        """A KeyboardInterrupt while builds are overlapped with execution
        must not leak shared-memory segments — including segments a worker
        published that the parent never got to adopt."""
        from repro.experiments import shm_available

        if not shm_available():
            pytest.skip("no shared memory here")
        from multiprocessing import shared_memory

        # record every segment name the runner promises to a worker
        import repro.experiments.graphstore as gs

        seen_names = []
        orig_expect = gs.GraphStore.expect_segment
        monkeypatch.setattr(
            gs.GraphStore, "expect_segment",
            lambda self, gkey, name: (seen_names.append(name),
                                      orig_expect(self, gkey, name))[-1],
        )

        hits = {"n": 0}

        def interrupting_progress(msg):
            if "[" in msg:  # a trial completion line: builds are in flight
                hits["n"] += 1
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(self._shared_spec(4, n=120), workers=2,
                      progress=interrupting_progress)
        assert hits["n"] == 1
        assert seen_names  # the overlapped path really ran
        for name in seen_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_worker_exception_mid_overlap_leaks_no_segments(self, monkeypatch):
        """Same guarantee when a worker crashes: the error propagates and
        every promised segment is reclaimed."""
        from repro.experiments import shm_available

        if not shm_available():
            pytest.skip("no shared memory here")
        from multiprocessing import shared_memory

        import repro.experiments.graphstore as gs

        seen_names = []
        orig_expect = gs.GraphStore.expect_segment
        monkeypatch.setattr(
            gs.GraphStore, "expect_segment",
            lambda self, gkey, name: (seen_names.append(name),
                                      orig_expect(self, gkey, name))[-1],
        )
        # verification fails in the worker: luby_mis params are invalid
        spec = SweepSpec(
            "crash-overlap",
            grid_scenarios(
                families=[{"name": "forest_union", "n": 60, "a": 2}],
                algorithms=[{"name": "cor46"},
                            {"name": "cor46", "eta": "bogus"}],
                seeds=[0, 1],
            ),
        )
        with pytest.raises(ValueError):
            run_sweep(spec, workers=2)
        assert seen_names
        for name in seen_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_stage_timings_surface_shared_builds(self):
        spec = self._shared_spec(2)
        pool = stage_timing_table(run_sweep(spec, workers=2))
        assert "shared graphs: 2 build(s) on the pool executor" in pool
        serial = stage_timing_table(run_sweep(spec))
        assert "shared graphs: 2 build(s) on the serial executor" in serial


class TestDefaultWorkers:
    def test_default_cap_is_eight(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == max(1, min(os.cpu_count() or 1, 8))

    def test_env_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == max(1, min(os.cpu_count() or 1, 2))
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "999")
        assert default_workers() == max(1, min(os.cpu_count() or 1, 999))

    def test_invalid_env_is_a_clear_error(self, monkeypatch):
        for bad in ("zero", "0", "-4", "2.5"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(InvalidParameterError, match="REPRO_WORKERS"):
                default_workers()


class TestStreamingPersistence:
    """Fresh records land in the cache as each trial completes, so a sweep
    that dies mid-run resumes from every finished trial."""

    def test_crash_mid_sweep_keeps_finished_trials(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def _boom(net, gen, seed, params):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("injected crash")
            return ALGORITHMS["cor46"].run(net, gen, seed, params)

        monkeypatch.setitem(
            ALGORITHMS, "flaky", AlgorithmSpec("coloring", _boom)
        )
        spec = SweepSpec(
            "crashy",
            [ScenarioSpec(family="tree", algorithm="flaky",
                          family_params={"n": 30}, seeds=[0, 1, 2, 3])],
        )
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="injected crash"):
            run_sweep(spec, cache=ResultCache(cache_dir))
        # the two completed trials were persisted before the crash...
        assert len(ResultCache(cache_dir)) == 2

        # ...and the retry serves them from cache, computing only the rest
        calls["n"] = -10_000  # stay on the happy path this time
        again = run_sweep(spec, cache=ResultCache(cache_dir))
        assert again.cache_hits == 2
        assert again.cache_misses == 2
        assert all(tr.metrics["verified"] for tr in again)

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--executor", "socket", "--spawn-workers", "2"],
        ],
        ids=["pool", "socket"],
    )
    def test_kill_mid_sweep_resumes_from_disk(self, tmp_path, extra):
        """The real thing: SIGKILL a sweep process, then resume.

        Streaming writes mean whatever finished before the kill is on disk
        (each record is one atomic append); the rerun must serve exactly
        those trials from cache and compute only the remainder.  Runs once
        through the default local pool and once through a socket
        coordinator with loopback workers — killing the coordinator must
        lose nothing that completed either (and its orphaned workers exit
        on their own when the connection drops).
        """
        cache_dir = str(tmp_path / "cache")
        args = ["sweep", "--n", "150", "--seeds", "2", "--workers", "2",
                "--cache-dir", cache_dir, *extra]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                          os.environ.get("PYTHONPATH", "")])
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            cache = ResultCache(cache_dir)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if cache.refresh() >= 1 or proc.poll() is not None:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("no record appeared within 60s")
        finally:
            proc.kill()
            proc.wait()
        survived = ResultCache(cache_dir).refresh()
        assert survived >= 1  # streaming writes: something finished, it's there

        # resume the very same spec against the survivors: everything that
        # finished before the kill is a hit, only the remainder recomputes
        from repro.cli import _default_sweep_spec

        spec = _default_sweep_spec(150, 2)
        unique = len({t.key() for t in spec.trials()})
        resumed = run_sweep(spec, cache=ResultCache(cache_dir))
        assert resumed.cache_hits >= survived
        assert resumed.cache_hits + resumed.cache_misses == unique
        assert len(ResultCache(cache_dir)) == unique
        assert all(tr.metrics["verified"] for tr in resumed)


class TestAggregate:
    def test_percentile_interpolation(self):
        vals = [1, 2, 3, 4]
        assert percentile(vals, 0) == 1
        assert percentile(vals, 100) == 4
        assert percentile(vals, 50) == 2.5
        assert percentile([5], 95) == 5

    def test_percentile_domain(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_summarize_groups_and_stats(self):
        spec = tiny_spec()
        res = run_sweep(spec)
        groups = summarize(res.results)
        assert len(groups) == 4  # 2 families x 2 algorithms
        for g in groups:
            assert g.count == 2
            assert g.stat("rounds", "p50") is not None
            # booleans (verified) are not aggregated as numbers
            assert "verified" not in g.metrics
        kinds = {(g.group["family"], g.group["algorithm"]) for g in groups}
        assert ("tree", "cor46") in kinds

    def test_report_table_mixes_kinds(self):
        res = run_sweep(tiny_spec(num_seeds=1))
        table = report_table(res)
        assert "colors p50" in table
        assert "|MIS| p50" in table
        assert "4 trials" in table

    def test_stage_timing_table_means_and_untimed_records(self):
        res = run_sweep(tiny_spec(num_seeds=1))
        table = stage_timing_table(res)
        for header in ("trials", "timed", "cached", "build_graph ms",
                       "run_algorithm ms", "verify ms", "metrics ms",
                       "total ms"):
            assert header in table

    @staticmethod
    def _timed_trial(seed, stages, cached):
        from repro.experiments import TrialResult

        return TrialResult(
            trial=TrialSpec(family="tree", algorithm="cor46", seed=seed,
                            family_params={"n": 30}),
            metrics={"rounds": 3}, stages=stages, cached=cached,
        )

    @staticmethod
    def _row_cells(table, *needles):
        rows = [ln for ln in table.splitlines()
                if all(n in ln for n in needles)]
        assert len(rows) == 1, (needles, table)
        return [c.strip() for c in rows[0].strip().strip("|").split("|")]

    def test_stage_timing_table_mixes_cached_and_fresh(self):
        """A group mixing fresh trials, cache hits that kept their timings,
        and a pre-staged record with no ``stages`` at all: the untimed
        record counts as a cached row and is excluded from the means
        instead of being dropped or zero-filled."""
        from repro.experiments import SweepResult

        full = {"build_graph": 0.010, "run_algorithm": 0.020,
                "verify": 0.002, "metrics": 0.001}
        hit = {"build_graph": 0.030, "run_algorithm": 0.040,
               "verify": 0.004, "metrics": 0.003}
        mixed = SweepResult(name="mixed", results=[
            self._timed_trial(0, full, cached=False),
            self._timed_trial(1, hit, cached=True),   # hit carrying timings
            self._timed_trial(2, {}, cached=True),    # pre-staged: no stages
        ])
        cells = self._row_cells(stage_timing_table(mixed), "tree", "cor46")
        # family, algorithm, trials, timed, cached, 4 stage means, total
        assert cells[2:5] == ["3", "2", "2"]
        # means over the 2 timed trials only, rendered in milliseconds
        assert float(cells[5]) == pytest.approx(20.0)  # build_graph
        assert float(cells[6]) == pytest.approx(30.0)  # run_algorithm
        assert "-" not in cells[5:]

    def test_stage_timing_table_all_cached_group_untimed(self):
        """A group of only pre-staged records renders ``-`` means (never
        fabricated zeros) but still shows its trial and cached counts."""
        from repro.experiments import SweepResult

        legacy = SweepResult(name="legacy", results=[
            self._timed_trial(0, {}, cached=True),
            self._timed_trial(1, {}, cached=True),
        ])
        table = stage_timing_table(legacy)
        cells = self._row_cells(table, "tree", "cor46")
        assert cells[2:5] == ["2", "0", "2"]
        assert set(cells[5:]) == {"-"}
        assert "pre-staged cache records carry no timings" in table


class TestPhaseBreakdowns:
    """Composite algorithms surface their RoundLedger next to — never
    inside — the deterministic metrics, and the breakdown survives the
    cache round-trip byte-for-byte."""

    @staticmethod
    def phase_spec():
        return SweepSpec(
            "phases",
            grid_scenarios(
                families=[{"name": "forest_union", "n": 40, "a": 2}],
                algorithms=[{"name": "mis_arboricity"}, {"name": "forests"},
                            {"name": "linial"}],
                seeds=[0],
            ),
        )

    EXPECTED: ClassVar = {
        "mis_arboricity": ["coloring_thm43", "color_class_sweep"],
        "forests": ["hpartition", "forest_labeling"],
    }

    def test_composite_algorithms_report_phases(self):
        res = run_sweep(self.phase_spec())
        by_algo = {tr.trial.algorithm: tr for tr in res}
        for algo, phase_names in self.EXPECTED.items():
            tr = by_algo[algo]
            assert [p["name"] for p in tr.phases] == phase_names
            # the phases tile the reported round complexity exactly
            assert sum(p["rounds"] for p in tr.phases) == tr.metrics["rounds"]
            for p in tr.phases:
                assert p["messages"] >= 0 and p["message_bytes"] >= 0
            # phases live next to metrics, never inside: aggregate reports
            # stay byte-identical to the pre-ledger engine
            assert "phases" not in tr.metrics
        # single-run algorithms simply report none
        assert by_algo["linial"].phases == []

    def test_phases_round_trip_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = run_sweep(self.phase_spec(), cache=cache)
        again = run_sweep(self.phase_spec(), cache=cache)
        assert again.cache_hits == again.num_trials
        fresh_phases = {tr.key: tr.phases for tr in fresh}
        again_phases = {tr.key: tr.phases for tr in again}
        assert fresh_phases == again_phases
        assert any(fresh_phases.values())  # the comparison is not vacuous

    def test_phases_rehydrate_as_ledger(self):
        from repro.simulator import RoundLedger

        res = run_sweep(self.phase_spec())
        tr = next(t for t in res if t.trial.algorithm == "mis_arboricity")
        ledger = RoundLedger.from_dicts(tr.phases)
        assert ledger.to_dicts() == tr.phases
        assert [p.name for p in ledger.phases] == self.EXPECTED["mis_arboricity"]


class TestSweepCLI:
    def _run(self, capsys, *extra):
        rc = main(["sweep", "--n", "40", "--seeds", "1", "--workers", "1",
                   *extra])
        assert rc == 0
        return capsys.readouterr().out

    def test_sweep_twice_hits_cache_with_identical_report(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out1 = self._run(capsys, "--cache-dir", cache, "--report")
        assert "0 hit(s)" in out1
        out2 = self._run(capsys, "--cache-dir", cache, "--report")
        assert "(100% hit rate)" in out2
        # identical aggregate table, modulo the streaming progress lines
        # (prefixed by the spec name) and the wall-time summary line
        def table_lines(out):
            return [ln for ln in out.splitlines()
                    if not ln.startswith(("sweep:", "builtin-demo:"))]
        assert table_lines(out1) == table_lines(out2)

    def test_sweep_no_cache(self, tmp_path, capsys):
        out = self._run(capsys, "--no-cache")
        assert "0 hit(s)" in out

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec(n=30, num_seeds=1).to_json())
        out = self._run(capsys, "--spec", str(spec_path), "--no-cache")
        assert "tiny" in out

    def test_sweep_stage_timings_table(self, capsys):
        out = self._run(capsys, "--no-cache", "--stage-timings")
        assert "stage timings — builtin-demo" in out
        for stage in ("build_graph ms", "run_algorithm ms", "verify ms",
                      "metrics ms"):
            assert stage in out

    def test_sweep_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit, match="workers"):
            main(["sweep", "--n", "30", "--seeds", "1", "--no-cache",
                  "--workers", "0"])

    def test_sweep_no_shm_flag(self, tmp_path, capsys):
        out = self._run(capsys, "--no-cache", "--workers", "2", "--no-shm")
        assert "via shared memory" not in out

    @staticmethod
    def _shared_spec_file(tmp_path):
        """Explicit seeds so the two algorithm cells share each graph."""
        spec = SweepSpec(
            "cli-shared",
            grid_scenarios(
                families=[{"name": "tree", "n": 40}],
                algorithms=[{"name": "cor46"}, {"name": "forests"}],
                seeds=[0, 1],
            ),
        )
        path = tmp_path / "shared.json"
        path.write_text(spec.to_json())
        return str(path)

    def test_sweep_summary_reports_graph_store(self, tmp_path, capsys):
        rc = main(["sweep", "--spec", self._shared_spec_file(tmp_path),
                   "--workers", "2", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 shared graph build(s) dispatched to the pool executor" in out
        assert "graph store: 2 shared build(s) on the pool executor" in out


@pytest.mark.slow
def test_parallel_sweep_at_scale(tmp_path):
    """Sweep-scale smoke test (excluded from tier-1 by the slow marker)."""
    spec = SweepSpec(
        "scale",
        grid_scenarios(
            families=[
                {"name": "forest_union", "n": 600, "a": 8},
                {"name": "planar", "n": 600},
                {"name": "random_geometric", "n": 600, "radius": 0.05},
                {"name": "hubs", "n": 600, "a": 3, "num_hubs": 4},
            ],
            algorithms=[
                {"name": "cor46"}, {"name": "be08"},
                {"name": "forests"}, {"name": "mis_arboricity"},
            ],
            num_seeds=3,
        ),
    )
    cache = ResultCache(str(tmp_path / "cache"))
    res = run_sweep(spec, cache=cache, workers=4)
    assert res.num_trials == 48
    assert all(tr.metrics["verified"] for tr in res)
    again = run_sweep(spec, cache=ResultCache(str(tmp_path / "cache")))
    assert again.hit_rate == 1.0
