"""Engine-contract rules: column-kernel purity and quiescence safety.

Two engine contracts are load-bearing for correctness and only checked
dynamically today:

* the column engine requires kernels to be pure array passes over the
  shared CSR — a kernel that mutates the CSR in place corrupts every
  later run sharing the arrays (they are zero-copy views, possibly
  shm-backed), and one that touches per-node Python state or ctx
  messaging breaks the byte-identical column-vs-event guarantee;
* the event engine trusts ``ctx.idle_until_message()`` as a promise
  that the node would do nothing if activated — a code path that
  declares idleness and then still sends is exactly the divergence
  (or deadlock) hazard the declaration was supposed to rule out.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import (
    Finding,
    ModuleInfo,
    Rule,
    contains_send,
    is_ctx_call,
    iter_blocks,
    register_rule,
)

#: ColumnRun fields a kernel may never write through (zero-copy CSR views).
_CSR_FIELDS = frozenset({"offsets", "neighbors"})

#: ndarray methods that mutate in place.
_MUTATING_METHODS = frozenset({"sort", "fill", "put", "partition", "resize"})


def _kernel_col_name(fn: ast.FunctionDef) -> Optional[str]:
    """The ColumnRun parameter of a ``column_kernel(self, col)`` method."""
    args = fn.args.posonlyargs + fn.args.args
    names = [a.arg for a in args if a.arg != "self"]
    return names[0] if names else None


@register_rule
class KernelPurity(Rule):
    id = "kernel-purity"
    severity = "error"
    summary = "column_kernel mutates CSR columns, per-node state, or uses ctx"
    doc = (
        "A column_kernel executes the whole run as numpy passes over "
        "`col.offsets`/`col.neighbors`, which are zero-copy views of the "
        "graph's shared CSR arrays (possibly shm-backed and shared "
        "with other trials).  The kernel must treat them as read-only, "
        "must not keep state on the prototype instance (`self.x = ...` "
        "leaks across runs — the prototype is never re-created), and has "
        "no NodeContext: any ctx use means the program logic is not "
        "actually vectorized.  Results are written only through "
        "col.outputs/col.rounds/col.note_round."
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for pc in mod.program_classes():
            fn = pc.methods.get("column_kernel")
            if fn is None:
                continue
            col = _kernel_col_name(fn)
            where = f"{pc.node.name}.column_kernel"
            for node in ast.walk(fn):
                # ctx use: a kernel has no per-node context at all
                if isinstance(node, ast.Name) and node.id == "ctx":
                    yield self.finding(
                        mod,
                        node,
                        f"{where} references `ctx` — kernels run without "
                        "per-node contexts; messaging/halting must be "
                        "expressed as array passes",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for tgt in targets:
                        yield from self._check_target(mod, where, col, tgt)
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if (
                        node.func.attr in _MUTATING_METHODS
                        and self._is_csr_field(node.func.value, col)
                    ):
                        yield self.finding(
                            mod,
                            node,
                            f"{where} calls `.{node.func.attr}()` on "
                            f"`{col}.{node.func.value.attr}` — in-place "
                            "mutation of the shared CSR corrupts every "
                            "other consumer of the graph",
                        )

    @staticmethod
    def _is_csr_field(node: ast.AST, col: Optional[str]) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr in _CSR_FIELDS
            and isinstance(node.value, ast.Name)
            and node.value.id == col
        )

    def _check_target(self, mod, where, col, tgt) -> Iterator[Finding]:
        # self.<attr> = ... anywhere in the kernel: prototype state
        for sub in ast.walk(tgt):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield self.finding(
                    mod,
                    sub,
                    f"{where} writes `self.{sub.attr}` — the kernel runs on "
                    "a shared prototype instance, so per-run state on self "
                    "leaks into the next run; keep state in local arrays",
                )
            elif isinstance(sub, ast.Subscript) and self._is_csr_field(
                sub.value, col
            ):
                yield self.finding(
                    mod,
                    sub,
                    f"{where} assigns into `{col}.{sub.value.attr}[...]` — "
                    "the CSR views are shared and read-only; copy before "
                    "mutating",
                )


_IDLE_METHODS = ("idle_until_message",)


@register_rule
class QuiescenceSafety(Rule):
    id = "quiescence-safety"
    severity = "error"
    summary = "path declares idle_until_message() and then still sends"
    doc = (
        "ctx.idle_until_message() promises that activating the node "
        "before the next message (or declared wakeup) would be a no-op.  "
        "A statement sequence that declares idleness and afterwards "
        "sends breaks the promise in the very activation that made it: "
        "the event engine may park the node's neighbours first, turning "
        "the in-flight send into a divergence from the dense engine or "
        "an eager-deadlock report.  Declare quiescence last, after all "
        "sends on the path."
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for pc, fn in mod.program_methods():
            ctx_names = pc.ctx_names(fn)
            if not ctx_names:
                continue
            where = f"{pc.node.name}.{fn.name}"
            for block in iter_blocks(fn):
                idle_at: Optional[int] = None
                for i, stmt in enumerate(block):
                    if idle_at is None:
                        if (
                            isinstance(stmt, ast.Expr)
                            and is_ctx_call(stmt.value, ctx_names, _IDLE_METHODS)
                        ):
                            idle_at = i
                        continue
                    send = contains_send(stmt, ctx_names)
                    if send is not None:
                        yield self.finding(
                            mod,
                            send,
                            f"{where} sends after declaring "
                            "idle_until_message() on the same path — the "
                            "declaration is a promise that the activation "
                            "does nothing more; move the declaration after "
                            "the send",
                        )
                        break
