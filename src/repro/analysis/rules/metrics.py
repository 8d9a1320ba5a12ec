"""REP003 — metrics drift: emissions ↔ ``SERVICE_METRIC_SPECS``.

``scripts/check_docs.py`` already pins the spec literal to the
OPERATIONS.md reference table; this rule is its code-side dual. It
finds the ``SERVICE_METRIC_SPECS`` assignment anywhere in the scanned
tree (``ast.literal_eval`` — the literal must stay pure, which is
itself enforced here), derives each spec's attribute name (the spec
name minus its ``<prefix>_``, matching how ``ServiceMetrics`` exposes
instruments), then collects every emission of the shape::

    <...>.metrics.<attr>.<op>(...)     # self.metrics.solves_total.inc(
    metrics.<attr>.<op>(...)           # local alias

for ``op`` in ``inc``/``set``/``observe``/``set_total``, and
reports both directions of drift:

- an emission whose ``<attr>`` resolves to no spec entry (the scrape
  would silently lack the series — or crash on a typo);
- a spec entry no code path ever emits (the docs promise a series
  that never moves).

Projects without a ``SERVICE_METRIC_SPECS`` literal are skipped — the
rule is repo-invariant, not repo-specific.
"""

from __future__ import annotations

import ast

from ..framework import META_RULE, Finding, Rule, rule, terminal_name

__all__ = ["MetricsDrift"]

SPEC_NAME = "SERVICE_METRIC_SPECS"
_EMIT_OPS = frozenset({"inc", "set", "observe", "set_total"})
#: Reads (tests, dashboards) are not emissions but still must resolve.
_READ_OPS = frozenset({"value", "snapshot"})


def _find_specs(project):
    """(source, assign-lineno, specs-list) of the first
    ``SERVICE_METRIC_SPECS`` literal, plus meta-findings when the
    literal is impure."""
    for source, tree in project.trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id == SPEC_NAME):
                    try:
                        specs = ast.literal_eval(node.value)
                    except ValueError:
                        return source, node.lineno, None
                    return source, node.lineno, specs
    return None, 0, None


def _attr_of(spec_name):
    """Spec name minus its namespace prefix (``morer_solves_total`` ->
    ``solves_total``), mirroring ``ServiceMetrics``' attribute
    exposure."""
    _, _, attr = spec_name.partition("_")
    return attr or spec_name


def _metric_usages(tree):
    """(lineno, col, attr, op) for every ``*.metrics.<attr>.<op>()``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in (_EMIT_OPS | _READ_OPS)):
            continue
        instrument = func.value
        if not isinstance(instrument, ast.Attribute):
            continue
        holder = terminal_name(instrument.value)
        if holder != "metrics":
            continue
        yield node.lineno, node.col_offset, instrument.attr, func.attr


@rule
class MetricsDrift(Rule):
    rule = "REP003"
    title = "metrics drift"

    def check(self, project):
        spec_source, spec_line, specs = _find_specs(project)
        if spec_source is None:
            return []
        if specs is None:
            return [Finding(
                META_RULE, spec_source.rel, spec_line, 0,
                f"{SPEC_NAME} is not a pure literal — the docs gate "
                "and this rule parse it with ast.literal_eval",
            )]
        findings = []
        spec_attrs = {}
        for spec in specs:
            name = spec.get("name") if isinstance(spec, dict) else None
            if not name:
                findings.append(Finding(
                    META_RULE, spec_source.rel, spec_line, 0,
                    f"{SPEC_NAME} entry without a 'name' key",
                ))
                continue
            spec_attrs[_attr_of(name)] = name

        used = set()
        for source, tree in project.trees():
            for line, col, attr, op in _metric_usages(tree):
                if attr not in spec_attrs:
                    findings.append(Finding(
                        self.rule, source.rel, line, col,
                        f"metric '{attr}' ({op}) has no "
                        f"{SPEC_NAME} entry — add the spec (and its "
                        "OPERATIONS.md row) or fix the name",
                    ))
                elif op in _EMIT_OPS:
                    used.add(attr)

        for attr in sorted(set(spec_attrs) - used):
            findings.append(Finding(
                self.rule, spec_source.rel, spec_line, 0,
                f"spec '{spec_attrs[attr]}' is registered but never "
                "emitted — dead series lie on dashboards; emit it or "
                "drop the spec",
            ))
        return findings
