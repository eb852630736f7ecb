"""Declarative scenario specifications for the sweep engine.

A *sweep* is the repo's real workload: run every algorithm across many graph
families, sizes, seeds, and parameters, and aggregate the resulting tradeoff
curves.  Instead of 19 bespoke benchmark loops, a sweep is described as data:

* a :class:`ScenarioSpec` names one (family, family_params, algorithm,
  algorithm_params) cell and the seeds to replicate it over;
* a :class:`SweepSpec` is a named list of scenarios, expressible in code or
  as JSON (``SweepSpec.from_json`` / ``to_json``);
* each scenario expands into :class:`TrialSpec` atoms — the unit of
  execution, caching, and parallelism.

Every trial has a stable **content-addressed key**: the SHA-256 of the
canonical JSON encoding of the trial plus a spec-format version.  The key is
what the on-disk cache is indexed by, so two sweeps that share cells share
work, and renaming a sweep never invalidates its trials.

Seeding is deterministic end to end.  A scenario may list explicit seeds or
just a replicate count; in the latter case per-trial seeds are *derived* from
the scenario's content hash (:func:`derive_seed`), so adding a scenario to a
sweep never shifts the seeds of its neighbours.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import InvalidParameterError

#: Bump when the meaning of a trial's encoding changes (invalidates caches).
SPEC_VERSION = 1


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(*parts: object) -> int:
    """A stable 31-bit seed derived from arbitrary labelled parts.

    Used to give every trial an independent, reproducible random seed
    without any global counter: the same parts always yield the same seed,
    and unrelated parts yield (cryptographically) unrelated seeds.
    """
    h = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:4], "big") & 0x7FFFFFFF


@dataclass
class TrialSpec:
    """One atomic experiment: a graph instance and one algorithm run on it.

    ``family_params`` parameterise the generator (excluding the seed, which
    is the trial's own ``seed``); ``algorithm_params`` parameterise the
    algorithm.  Both must be JSON-serialisable.
    """

    family: str
    algorithm: str
    seed: int = 0
    family_params: Dict[str, object] = field(default_factory=dict)
    algorithm_params: Dict[str, object] = field(default_factory=dict)
    #: simulator engine for the trial's network ("" = the default engine);
    #: omitted from the encoding when empty so legacy cache keys are stable
    scheduler: str = ""

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "family": self.family,
            "family_params": dict(self.family_params),
            "algorithm": self.algorithm,
            "algorithm_params": dict(self.algorithm_params),
            "seed": self.seed,
        }
        if self.scheduler:
            d["scheduler"] = self.scheduler
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TrialSpec":
        return cls(
            family=str(d["family"]),
            algorithm=str(d["algorithm"]),
            seed=int(d.get("seed", 0)),
            family_params=dict(d.get("family_params", {})),
            algorithm_params=dict(d.get("algorithm_params", {})),
            scheduler=str(d.get("scheduler", "")),
        )

    def key(self) -> str:
        """Content-addressed cache key for this trial."""
        payload = canonical_json({"v": SPEC_VERSION, "trial": self.to_dict()})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def graph_key(self) -> str:
        """Content-addressed key of the trial's graph *instance*.

        Covers exactly the inputs the family builder sees — ``(family,
        family_params, seed)`` — and nothing algorithm-side, so every trial
        of an ablation sweep that varies only algorithm parameters maps to
        the same graph key.  This is what
        :class:`repro.experiments.graphstore.GraphStore` dedups builds by.
        """
        payload = canonical_json(
            {
                "v": SPEC_VERSION,
                "family": self.family,
                "family_params": dict(self.family_params),
                "seed": self.seed,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identifier for tables and logs."""
        fp = ",".join(f"{k}={v}" for k, v in sorted(self.family_params.items()))
        return f"{self.family}({fp})/{self.algorithm}#{self.seed}"


@dataclass
class ScenarioSpec:
    """One sweep cell replicated over several seeds.

    Either list ``seeds`` explicitly, or give ``num_seeds`` and let the
    engine derive them from the scenario content (see :func:`derive_seed`).
    """

    family: str
    algorithm: str
    family_params: Dict[str, object] = field(default_factory=dict)
    algorithm_params: Dict[str, object] = field(default_factory=dict)
    seeds: Optional[List[int]] = None
    num_seeds: int = 1
    #: simulator engine for every trial of the cell ("" = the default);
    #: a set value flows into each trial's cache key, so engine A/B cells
    #: of the same workload are cached independently
    scheduler: str = ""

    def resolved_seeds(self) -> List[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        if self.num_seeds < 1:
            raise InvalidParameterError("ScenarioSpec: num_seeds must be >= 1")
        stem = canonical_json(
            {
                "family": self.family,
                "family_params": self.family_params,
                "algorithm": self.algorithm,
                "algorithm_params": self.algorithm_params,
            }
        )
        return [derive_seed(stem, i) for i in range(self.num_seeds)]

    def trials(self) -> List[TrialSpec]:
        return [
            TrialSpec(
                family=self.family,
                algorithm=self.algorithm,
                seed=s,
                family_params=dict(self.family_params),
                algorithm_params=dict(self.algorithm_params),
                scheduler=self.scheduler,
            )
            for s in self.resolved_seeds()
        ]

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "family": self.family,
            "family_params": dict(self.family_params),
            "algorithm": self.algorithm,
            "algorithm_params": dict(self.algorithm_params),
        }
        if self.seeds is not None:
            d["seeds"] = list(self.seeds)
        else:
            d["num_seeds"] = self.num_seeds
        if self.scheduler:
            d["scheduler"] = self.scheduler
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ScenarioSpec":
        return cls(
            family=str(d["family"]),
            algorithm=str(d["algorithm"]),
            family_params=dict(d.get("family_params", {})),
            algorithm_params=dict(d.get("algorithm_params", {})),
            seeds=[int(s) for s in d["seeds"]] if "seeds" in d else None,
            num_seeds=int(d.get("num_seeds", 1)),
            scheduler=str(d.get("scheduler", "")),
        )


@dataclass
class SweepSpec:
    """A named collection of scenarios — the unit the CLI and cache work on."""

    name: str
    scenarios: List[ScenarioSpec] = field(default_factory=list)

    def trials(self) -> List[TrialSpec]:
        """All trials of the sweep, in deterministic scenario order."""
        out: List[TrialSpec] = []
        for sc in self.scenarios:
            out.extend(sc.trials())
        return out

    def graph_multiplicity(self) -> int:
        """The largest number of trials consuming any one graph instance.

        ``1`` means no graph is shared — scenario-derived seeds fold the
        algorithm cell into the graph seed, so e.g. ``num_seeds``
        ablations never share — and graph sharing can save nothing.
        ``0`` for an empty sweep.
        """
        counts = graph_multiplicity(self.trials())
        return max(counts.values()) if counts else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenarios": [sc.to_dict() for sc in self.scenarios],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SweepSpec":
        return cls(
            name=str(d.get("name", "sweep")),
            scenarios=[ScenarioSpec.from_dict(s) for s in d.get("scenarios", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def graph_multiplicity(trials: Iterable["TrialSpec"]) -> Dict[str, int]:
    """How many of ``trials`` consume each graph instance.

    Maps :meth:`TrialSpec.graph_key` to its trial count, in first-seen
    order.  Keys with multiplicity > 1 are the *shared* graphs — the ones
    the runner builds once, as a build payload, instead of once per trial.
    """
    counts: Dict[str, int] = {}
    for t in trials:
        gkey = t.graph_key()
        counts[gkey] = counts.get(gkey, 0) + 1
    return counts


def grid_scenarios(
    families: Sequence[Dict[str, object]],
    algorithms: Sequence[Dict[str, object]],
    num_seeds: int = 1,
    seeds: Optional[List[int]] = None,
) -> List[ScenarioSpec]:
    """Cartesian product helper: every family entry × every algorithm entry.

    Each entry is ``{"name": ..., **params}``; the name keys the registry and
    the remaining keys become the params dict.
    """
    out: List[ScenarioSpec] = []
    for fam in families:
        fam = dict(fam)
        fname = str(fam.pop("name"))
        for alg in algorithms:
            alg = dict(alg)
            aname = str(alg.pop("name"))
            out.append(
                ScenarioSpec(
                    family=fname,
                    algorithm=aname,
                    family_params=fam,
                    algorithm_params=alg,
                    seeds=list(seeds) if seeds is not None else None,
                    num_seeds=num_seeds,
                )
            )
    return out
