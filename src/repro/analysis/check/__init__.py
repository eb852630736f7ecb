"""``repro check`` — static model-compliance and concurrency analysis.

An AST-based analyzer enforcing the simulator's written contracts as
named rules:

========================  ================================================
rule id                   contract
========================  ================================================
congest-remote-state      programs observe the world only through ctx
congest-payload           messages stay O(log n) bits and sizable
determinism               trials are pure functions of the seed
kernel-purity             column kernels never mutate shared CSR/self/ctx
quiescence-safety         idle declarations come after the last send
fork-thread-safety        no threads/locks across pool forks; shm via
                          GraphStore
cache-key-stability       spec params are JSON-stable (cache keys)
loop-invariant-container  ``x in set(...)`` is not rebuilt per iteration
========================  ================================================

Suppress a finding inline with ``# repro: allow[rule-id] reason`` on the
finding's line or the line above; suppressions (and their reasons) are
surfaced in the JSON output.  Importing this package registers every
built-in rule; external packs call :func:`register_rule` themselves.
"""

from .core import (
    Finding,
    ModuleInfo,
    RULES,
    Rule,
    get_rules,
    register_rule,
    rule_ids,
)

# importing the rule modules populates the registry
from . import rules_complexity  # noqa: F401
from . import rules_congest  # noqa: F401
from . import rules_engine  # noqa: F401
from . import rules_experiments  # noqa: F401

from .runner import (
    CheckResult,
    check_paths,
    check_source,
    iter_python_files,
    render_github,
    render_human,
    render_json,
)
from .suppress import Suppression, match_suppression, parse_suppressions

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "RULES",
    "register_rule",
    "rule_ids",
    "get_rules",
    "CheckResult",
    "check_paths",
    "check_source",
    "iter_python_files",
    "render_human",
    "render_json",
    "render_github",
    "Suppression",
    "parse_suppressions",
    "match_suppression",
]
