"""Context conditions: configurable well-formedness checks over minimal ASTs.

`CONDITIONS` binds each language (grammar name) to its conditions, keyed by
id.  CD and CDSimp share the class-diagram conditions:

  CC-unique-class-names           (always active) class names unique
  CC-supers-declared              (optional) every super is a declared class
  CC-single-inheritance-syntactic (optional) at most one super per class

Non-optional conditions always apply; optional ones are selected by id.
Each condition is a total predicate yielding a possibly empty violation
list; violations are reported deterministically, ordered by (condition id,
source position).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .grammar import GrammarDef
from .schema import AstNode
from .semantics import CLASS_FIELDS, check_statements, class_supers, statement_nodes


class UnknownConditionError(Exception):
    pass


class CCViolation(NamedTuple):
    condition_id: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"CC {self.condition_id} {self.line}:{self.col} {self.message}"


class ContextCondition(NamedTuple):
    id: str
    optional: bool
    check: Callable[[list[AstNode]], list[CCViolation]]


def _violation(cc_id: str, node: AstNode, message: str) -> CCViolation:
    line, col = node.pos or (0, 0)
    return CCViolation(cc_id, line, col, message)


def _cc_unique_class_names(classes: list[AstNode]) -> list[CCViolation]:
    seen: set[str] = set()
    violations = []
    for c in classes:
        name = c.fields["Name"]
        if name in seen:
            violations.append(
                _violation("CC-unique-class-names", c, f"duplicate class name {name}")
            )
        seen.add(name)
    return violations


def _cc_supers_declared(classes: list[AstNode]) -> list[CCViolation]:
    declared = {c.fields["Name"] for c in classes}
    return [
        _violation(
            "CC-supers-declared", c, f"class {c.fields['Name']} extends undeclared class {s}"
        )
        for c in classes
        for s in class_supers(c)
        if s not in declared
    ]


def _cc_single_inheritance(classes: list[AstNode]) -> list[CCViolation]:
    violations = []
    for c in classes:
        supers = class_supers(c)
        if len(supers) > 1:
            message = f"class {c.fields['Name']} has {len(supers)} super-classes"
            violations.append(_violation("CC-single-inheritance-syntactic", c, message))
    return violations


_CLASS_DIAGRAM = {
    cc.id: cc
    for cc in (
        ContextCondition(
            "CC-unique-class-names",
            optional=False,
            check=_cc_unique_class_names,
        ),
        ContextCondition(
            "CC-supers-declared",
            optional=True,
            check=_cc_supers_declared,
        ),
        ContextCondition(
            "CC-single-inheritance-syntactic",
            optional=True,
            check=_cc_single_inheritance,
        ),
    )
}

CONDITIONS: dict[str, dict[str, ContextCondition]] = {
    "CD": _CLASS_DIAGRAM,
    "CDSimp": _CLASS_DIAGRAM,
}


def check_context_conditions(
    node: AstNode, active: Iterable[str], grammar: GrammarDef
) -> list[CCViolation]:
    """Run the given conditions of the grammar's language on a minimal AST
    parsed by `grammar`, and return all violations in deterministic order.
    Before any runs, the grammar's class statements are checked once for the
    fields the conditions read (`semantics.CLASS_FIELDS`)."""
    conditions = CONDITIONS.get(grammar.name, {})
    checks = []
    for cc_id in sorted(set(active)):
        condition = conditions.get(cc_id)
        if condition is None:
            raise UnknownConditionError(
                f"unknown context condition {cc_id} for language {grammar.name}"
            )
        checks.append(condition.check)
    if not checks:
        return []
    check_statements(grammar.schema, grammar.start_production, CLASS_FIELDS)
    classes = statement_nodes(node)
    return sorted(v for check in checks for v in check(classes))
