"""Complexity rules: containers rebuilt on every iteration.

``v in set(participants)`` inside a comprehension builds the set once per
element, turning an O(n) filter into O(n·|P|).  The Kuhn–Wattenhofer
reduction shipped exactly that line, and at n = 10^5 it dominated the
whole Legal-Coloring pipeline; no fixed-size benchmark noticed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, ModuleInfo, Rule, register_rule

#: Builtins whose call materialises a fresh container.
_BUILDERS = frozenset({"set", "frozenset", "list", "tuple", "sorted", "dict"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register_rule
class LoopInvariantContainer(Rule):
    id = "loop-invariant-container"
    severity = "error"
    summary = "`x in set(...)` inside a loop rebuilds the container per test"
    doc = (
        "A membership test whose right operand is a call to set/frozenset/"
        "list/tuple/sorted/dict builds that container every time the test "
        "runs.  Inside a comprehension or a loop body that is once per "
        "iteration: O(n) work per test, O(n²) overall.  Build the "
        "container once before the loop.  The iterable of a `for` "
        "statement (or of a comprehension's first `for`) is evaluated "
        "once and is not flagged."
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        yield from self._visit(mod, mod.tree, False)

    def _visit(self, mod: ModuleInfo, node: ast.AST, looped: bool) -> Iterator[Finding]:
        if looped and isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if (
                    isinstance(op, (ast.In, ast.NotIn))
                    and isinstance(right, ast.Call)
                    and isinstance(right.func, ast.Name)
                    and right.func.id in _BUILDERS
                ):
                    yield self.finding(
                        mod,
                        right,
                        f"membership test rebuilds `{right.func.id}(...)` on "
                        "every iteration — build it once before the loop",
                    )
        if isinstance(node, (ast.For, ast.AsyncFor)):
            once, repeated = [node.target, node.iter, *node.orelse], node.body
        elif isinstance(node, ast.While):
            once, repeated = node.orelse, [node.test, *node.body]
        elif isinstance(node, _COMPREHENSIONS):
            first = node.generators[0]
            once = [first.iter]
            repeated = [first.target, *first.ifs]
            repeated += [c for c in ast.iter_child_nodes(node) if c is not first]
        else:
            once, repeated = ast.iter_child_nodes(node), []
        for child in once:
            yield from self._visit(mod, child, looped)
        for child in repeated:
            yield from self._visit(mod, child, True)
