"""Experiments-layer rules: fork/thread discipline and cache-key stability.

The sweep engine mixes threads (socket executor, payload dispatcher),
``fork``-started pools, and named shared-memory segments; the cache is
keyed by canonical JSON of the trial spec.  Both carry contracts that a
review cannot reliably eyeball:

* forking a process while helper threads are running (or while a lock
  is held) snapshots the lock state into the child — a child that
  inherits a locked lock deadlocks on first acquire, the classic
  fork+threads hazard;
* shared-memory segments must be created through the GraphStore layer,
  which registers every name for teardown (``store.close()`` in
  ``finally`` reclaims worker-published segments even on interrupt) —
  a segment created elsewhere leaks on every abnormal exit;
* a ``TrialSpec``/``ScenarioSpec`` params value that is not JSON-stable
  (sets, bytes, non-string dict keys, NaN, wall-clock values) either
  crashes canonical_json or — worse — silently produces a key that
  never matches again, so every run is a cache miss.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional

from .core import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register_rule,
    terminal_name,
)

#: call targets that create a process pool (fork boundary)
_POOL_CTORS = frozenset({"Pool", "ProcessPoolExecutor"})

#: files allowed to create shared-memory segments: the registration layer
_SHM_OWNERS = frozenset({"graphstore.py", "graph.py"})


def _is_thread_start(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and terminal_name(node.func) == "Thread"
    )


def _is_pool_ctor(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and terminal_name(node.func) in _POOL_CTORS
    )


def _is_lockish(node: ast.AST) -> bool:
    """A with-item expression that statically looks like a lock."""
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in ("Lock", "RLock", "Semaphore", "BoundedSemaphore"):
            return True
        node = node.func
    name = dotted_name(node) or terminal_name(node) or ""
    return "lock" in name.lower()


@register_rule
class ForkThreadSafety(Rule):
    id = "fork-thread-safety"
    severity = "warning"
    summary = "thread/lock live across a pool fork, or unregistered shm"
    doc = (
        "Process pools fork: a thread started earlier in the same "
        "function does not exist in the children, but any lock it holds "
        "is copied locked — the child deadlocks on first acquire.  "
        "Start pools first, threads after (or hand the thread a handle "
        "to an already-created pool).  Creating a pool inside a `with "
        "<lock>:` block forks with the lock held for the same effect.  "
        "SharedMemory segments must be created via the GraphStore layer "
        "(graphstore.py), which registers every segment name so close() "
        "reclaims it on interrupt; a segment created elsewhere leaks."
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        basename = os.path.basename(mod.path)
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(mod, node)
            elif isinstance(node, ast.With):
                yield from self._check_with(mod, node)
            elif isinstance(node, ast.Call) and basename not in _SHM_OWNERS:
                if terminal_name(node.func) == "SharedMemory" and any(
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                ):
                    yield self.finding(
                        mod,
                        node,
                        "SharedMemory(create=True) outside the GraphStore "
                        "layer — segments created here are not registered "
                        "for teardown and leak on interrupt; promise the "
                        "name with GraphStore.expect_segment(), write it "
                        "with Graph.to_shm(name=...) and hand it over with "
                        "GraphStore.adopt_segment()",
                    )

    def _check_function(self, mod, fn) -> Iterator[Finding]:
        """Thread started lexically before a pool ctor in the same body."""
        thread_line: Optional[int] = None
        events: List[ast.Call] = [
            sub
            for sub in ast.walk(fn)
            if _is_thread_start(sub) or _is_pool_ctor(sub)
        ]
        for call in sorted(events, key=lambda c: (c.lineno, c.col_offset)):
            if _is_thread_start(call):
                if thread_line is None:
                    thread_line = call.lineno
            elif thread_line is not None:
                yield self.finding(
                    mod,
                    call,
                    f"{fn.name}: pool created after a Thread was started "
                    f"(line {thread_line}) — fork snapshots the thread's "
                    "lock state into the children; create the pool before "
                    "starting helper threads",
                )
                break

    def _check_with(self, mod, node) -> Iterator[Finding]:
        if not any(_is_lockish(item.context_expr) for item in node.items):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if _is_pool_ctor(sub):
                    yield self.finding(
                        mod,
                        sub,
                        "pool created while holding a lock — the fork "
                        "copies the lock in its held state into every "
                        "child; release the lock before forking",
                    )
                    return


_SPEC_CTORS = frozenset({"TrialSpec", "ScenarioSpec"})
_KEY_FIELDS = frozenset({"family_params", "algorithm_params"})

#: roots of calls whose value differs run to run — poison for cache keys
_VOLATILE_ROOTS = frozenset({"time", "datetime", "uuid", "random", "secrets", "os"})


@register_rule
class CacheKeyStability(Rule):
    id = "cache-key-stability"
    severity = "error"
    summary = "non-JSON-stable value flows into a spec's key-bearing field"
    doc = (
        "TrialSpec.key() is the SHA-256 of canonical JSON over the "
        "trial's fields: family_params/algorithm_params values must "
        "round-trip through JSON unchanged.  Sets and frozensets have "
        "no JSON form (and repr order varies), bytes do not serialise, "
        "non-string dict keys are coerced (so from_json never matches "
        "again), NaN is not valid canonical JSON, and wall-clock/uuid/"
        "unseeded-random values give every run a fresh key — the cache "
        "then never hits.  Use JSON-native, deterministic values only."
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not (
                isinstance(node, ast.Call)
                and terminal_name(node.func) in _SPEC_CTORS
            ):
                continue
            ctor = terminal_name(node.func)
            for kw in node.keywords:
                if kw.arg in _KEY_FIELDS:
                    yield from self._check_value(mod, ctor, kw.arg, kw.value)

    def _check_value(self, mod, ctor, field, value) -> Iterator[Finding]:
        where = f"{ctor}({field}=...)"
        for sub in ast.walk(value):
            if isinstance(sub, (ast.Set, ast.SetComp)):
                yield self.finding(
                    mod, sub,
                    f"{where}: set literal in a key-bearing field — sets "
                    "have no canonical JSON form; use a sorted list",
                )
            elif isinstance(sub, ast.Lambda):
                yield self.finding(
                    mod, sub,
                    f"{where}: callable in a key-bearing field — it cannot "
                    "be JSON-encoded into the cache key",
                )
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, bytes):
                yield self.finding(
                    mod, sub,
                    f"{where}: bytes value in a key-bearing field — bytes "
                    "do not JSON-serialise; use str or a list of ints",
                )
            elif isinstance(sub, ast.Dict):
                for key in sub.keys:
                    if key is None:  # **expansion: contents unknown
                        continue
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ) and not isinstance(key, ast.Name):
                        yield self.finding(
                            mod, key,
                            f"{where}: non-string dict key — canonical "
                            "JSON coerces it to a string, so the decoded "
                            "spec never reproduces the same key",
                        )
            elif isinstance(sub, ast.Call):
                name = terminal_name(sub.func)
                if name in ("set", "frozenset"):
                    yield self.finding(
                        mod, sub,
                        f"{where}: {name}(...) in a key-bearing field — "
                        "sets have no canonical JSON form; use a sorted "
                        "list",
                    )
                elif name == "float" and sub.args:
                    arg = sub.args[0]
                    if isinstance(arg, ast.Constant) and str(
                        arg.value
                    ).lstrip("+-").lower() in ("nan", "inf", "infinity"):
                        yield self.finding(
                            mod, sub,
                            f"{where}: non-finite float — NaN/Inf are not "
                            "valid canonical JSON",
                        )
                else:
                    chain = dotted_name(sub.func)
                    if chain is not None:
                        root = chain.partition(".")[0]
                        if root in _VOLATILE_ROOTS and "." in chain:
                            yield self.finding(
                                mod, sub,
                                f"{where}: `{chain}(...)` — a value that "
                                "changes between runs gives every trial a "
                                "fresh cache key; keys must be "
                                "reproducible",
                            )
