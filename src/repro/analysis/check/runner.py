"""File walking, rule execution, and output rendering for ``repro check``.

The analyzer proper: collect ``.py`` files from the given paths, parse
each once, run every selected rule over the module, match findings
against inline suppressions, and render the result as a human report,
a JSON document (schema below), or GitHub workflow annotations.

JSON schema (``--format json``), version 1::

    {
      "version": 1,
      "files": <int>,                # files analyzed
      "findings": [Finding...],      # unsuppressed, sorted by location
      "suppressed": [Finding...],    # each with suppression_reason
      "summary": {"error": n, "warning": m, "suppressed": k}
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import Finding, ModuleInfo, Rule, get_rules
from .suppress import match_suppression

#: directories never descended into
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".repro-cache", ".venv", "node_modules", "results"}
)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for fname in filenames:
                    if fname.endswith(".py"):
                        out.append(os.path.join(dirpath, fname))
        else:
            raise FileNotFoundError(path)
    return sorted(set(out))


@dataclass
class CheckResult:
    """Everything one ``repro check`` invocation produced."""

    files: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing unsuppressed was found (CI gate)."""
        return not self.findings

    def counts(self):
        by_sev = {"error": 0, "warning": 0}
        for f in self.findings:
            by_sev[f.severity] = by_sev.get(f.severity, 0) + 1
        by_sev["suppressed"] = len(self.suppressed)
        return by_sev

    def to_dict(self):
        return {
            "version": 1,
            "files": self.files,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "summary": self.counts(),
        }


def check_source(
    path: str, source: str, rules: Optional[Iterable[Rule]] = None
) -> Tuple[List[Finding], List[Finding]]:
    """Run rules over one in-memory module; returns (open, suppressed)."""
    selected = list(rules) if rules is not None else get_rules()
    try:
        mod = ModuleInfo(path, source)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    rule="syntax-error",
                    severity="error",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    message=f"cannot parse file: {exc.msg}",
                )
            ],
            [],
        )
    open_findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in selected:
        for finding in rule.check(mod):
            sup = match_suppression(mod.suppressions, finding.rule, finding.line)
            if sup is not None:
                finding.suppressed = True
                finding.suppression_reason = sup.reason
                suppressed.append(finding)
            else:
                open_findings.append(finding)
    return open_findings, suppressed


def check_paths(
    paths: Sequence[str], rule_ids: Optional[Sequence[str]] = None
) -> CheckResult:
    """Analyze every ``.py`` file under ``paths`` with the selected rules."""
    rules = get_rules(rule_ids)
    result = CheckResult()
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        result.files += 1
        found, sup = check_source(path, source, rules)
        result.findings.extend(found)
        result.suppressed.extend(sup)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_human(result: CheckResult) -> str:
    lines = []
    for f in result.findings:
        lines.append(
            f"{f.path}:{f.line}:{f.col}: {f.severity}[{f.rule}] {f.message}"
        )
    counts = result.counts()
    lines.append(
        f"repro check: {result.files} file(s), "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['suppressed']} suppressed"
    )
    for f in result.suppressed:
        lines.append(
            f"  suppressed {f.path}:{f.line} [{f.rule}]: "
            f"{f.suppression_reason}"
        )
    return "\n".join(lines)


def render_json(result: CheckResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def render_github(result: CheckResult) -> str:
    """GitHub Actions workflow-command annotations, one per finding."""
    lines = []
    for f in result.findings:
        level = "error" if f.severity == "error" else "warning"
        # workflow commands terminate the message at a newline; findings
        # are single-line already, but be safe
        msg = f.message.replace("\n", " ")
        lines.append(
            f"::{level} file={f.path},line={f.line},col={f.col},"
            f"title=repro check [{f.rule}]::{msg}"
        )
    counts = result.counts()
    lines.append(
        f"repro check: {result.files} file(s), "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['suppressed']} suppressed"
    )
    return "\n".join(lines)
