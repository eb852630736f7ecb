"""The benchmark's workloads: which sweep each one runs, and why.

Every workload is a closed-loop batch of sweep trials: ``run_sweep`` hands
the executor its next payload only when the executor asks for one, so a
slower program simply takes longer; nothing is dispatched on a schedule.
Inputs are derived from the workload seed alone (graph seeds are a fixed
function of it), and every algorithm cell of one size lists the same
explicit seeds, so the cells share graph instances through the GraphStore.

This module imports ``repro`` only inside :meth:`Workload.spec`, so the
orchestrator can list workloads without paying for the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: (family, family params without ``n``)
Family = Tuple[str, Dict[str, object]]
#: (algorithm, algorithm params)
Algorithm = Tuple[str, Dict[str, object]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: what the workload stresses, recorded in BENCHMARK.json
    why: str
    families: Tuple[Family, ...]
    algorithms: Tuple[Algorithm, ...]
    #: two sizes a factor 4 apart, so every workload reports ``n_slope``
    sizes: Tuple[int, int]
    #: graph instances per (family, size)
    seeds_per_size: int
    #: 1 runs on ``SerialExecutor``; more runs on ``LocalPoolExecutor``
    workers: int = 1

    def graph_seeds(self, seed: int) -> List[int]:
        return [seed * self.seeds_per_size + i for i in range(self.seeds_per_size)]

    def spec(self, seed: int):
        """The workload's ``SweepSpec`` for one workload seed."""
        from repro.experiments import ScenarioSpec, SweepSpec

        seeds = self.graph_seeds(seed)
        return SweepSpec(
            name=f"{self.name}-{seed}",
            scenarios=[
                ScenarioSpec(
                    family=family,
                    algorithm=algorithm,
                    family_params=dict(fparams, n=n),
                    algorithm_params=dict(aparams),
                    seeds=list(seeds),
                )
                for n in self.sizes
                for family, fparams in self.families
                for algorithm, aparams in self.algorithms
            ],
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # a=16 exceeds p (4 for cor46 at eta=0.5, 8 for thm43 at mu=1.5), so
        # Algorithm 2 really recurses and nearly every simulator run carries
        # participants/part_of: the scalar path.  With a=4 the recursion is
        # skipped (alpha <= p) and this workload would measure nothing new.
        Workload(
            name="legal_recursion",
            why=(
                "Legal-Coloring recursion (cor46, thm43; a=16 > p) on the "
                "serial event engine: almost every simulator run is a "
                "participants/part_of subset run"
            ),
            families=(("forest_union", {"a": 16}),),
            algorithms=(("cor46", {"eta": 0.5}), ("thm43", {"mu": 1.5})),
            sizes=(500, 2000),
            seeds_per_size=1,
        ),
        # Many small trials: the runner, GraphStore shm publish/attach,
        # cache appends and per-graph build overhead become a visible share.
        Workload(
            name="sweep_pool",
            why=(
                "320 small trials (4 families x 4 flagship algorithms) on a "
                "2-worker pool, then a warm cache replay: runner, GraphStore "
                "and cache overhead are a visible share"
            ),
            families=(
                ("forest_union", {"a": 4}),
                ("random_geometric", {"radius": 0.1}),
                ("planar", {}),
                ("preferential", {"m": 3}),
            ),
            algorithms=(
                ("forests", {}),
                ("cor46", {"eta": 0.5}),
                ("thm43", {"mu": 1.5}),
                ("mis_arboricity", {}),
            ),
            sizes=(75, 300),
            seeds_per_size=10,
            workers=2,
        ),
    )
}
