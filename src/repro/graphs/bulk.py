"""Numpy-native bulk graph generation for million-node workloads.

The generators in :mod:`repro.graphs.generators` build edges one Python
object at a time, which is fine up to ~10^5 vertices but dominates the wall
clock long before the column engine does any work at 10^6–10^7.  This module
provides the vectorised counterpart for the canonical arboricity-``a``
workload: :func:`forest_union_bulk` draws each forest as a random recursive
tree over a random permutation entirely inside numpy and hands the endpoint
arrays straight to :meth:`Graph.from_arrays` — no Python edge list ever
exists.

The construction certifies arboricity ≤ ``a`` exactly like
:func:`~repro.graphs.generators.forest_union` (a union of ``a`` forests);
the random streams differ (``numpy.random.Generator`` vs
:class:`random.Random`), so graphs are *not* sample-identical to the scalar
generator for the same seed — they are draws from the same family, which is
what the benchmarks need.
"""

from __future__ import annotations

import numpy as _np

from ..errors import InvalidParameterError
from .generators import GeneratedGraph
from .graph import Graph


def forest_union_bulk(
    n: int, a: int, seed: int = 0, density: float = 1.0
) -> GeneratedGraph:
    """A union of ``a`` random spanning forests, built as numpy columns.

    Per forest: a random permutation of the ids and a random recursive tree
    over it (vertex ``i`` attaches to a uniform earlier vertex), the same
    construction as the scalar :func:`~repro.graphs.generators.forest_union`
    — so the certified bound (arboricity ≤ ``a``) carries over verbatim.
    ``density`` keeps a fraction, in ``(0, 1]``, of each forest's ``n − 1``
    edges, as in the scalar generator.

    Deterministic given ``seed`` (via ``numpy.random.default_rng``).
    """
    if n < 2:
        raise InvalidParameterError("forest_union_bulk: n must be >= 2")
    if a < 1:
        raise InvalidParameterError("forest_union_bulk: a must be >= 1")
    if not (0.0 < density <= 1.0):
        raise InvalidParameterError(
            "forest_union_bulk: density must be in (0, 1]"
        )
    rng = _np.random.default_rng(seed)
    keep = max(1, min(n - 1, int(density * (n - 1))))
    us = _np.empty(a * keep, dtype=_np.int64)
    vs = _np.empty(a * keep, dtype=_np.int64)
    for f in range(a):
        perm = rng.permutation(n).astype(_np.int64, copy=False)
        # vertex i (in permuted order) attaches to a uniform j < i
        parents = rng.integers(0, _np.arange(1, n, dtype=_np.int64))
        u = perm[1:]
        v = perm[parents]
        if keep < n - 1:
            pick = rng.permutation(n - 1)[:keep]
            u = u[pick]
            v = v[pick]
        us[f * keep : (f + 1) * keep] = u
        vs[f * keep : (f + 1) * keep] = v
    g = Graph.from_arrays(n, us, vs)
    return GeneratedGraph(
        g,
        a,
        "forest_union_bulk",
        {"n": n, "a": a, "seed": seed, "density": density},
    )
