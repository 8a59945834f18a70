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

from .schema import AstNode
from .semantics import class_name, class_supers, statement_nodes


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
    check: Callable[[AstNode], list[CCViolation]]


def _violation(cc_id: str, node: AstNode, message: str) -> CCViolation:
    line, col = (node.pos.line, node.pos.col) if node.pos else (0, 0)
    return CCViolation(cc_id, line, col, message)


def _cc_unique_class_names(diagram: AstNode) -> list[CCViolation]:
    seen: set[str] = set()
    violations = []
    for c in statement_nodes(diagram):
        name = class_name(c)
        if name in seen:
            violations.append(
                _violation("CC-unique-class-names", c, f"duplicate class name {name}")
            )
        seen.add(name)
    return violations


def _cc_supers_declared(diagram: AstNode) -> list[CCViolation]:
    declared = {class_name(c) for c in statement_nodes(diagram)}
    return [
        _violation(
            "CC-supers-declared", c, f"class {class_name(c)} extends undeclared class {s}"
        )
        for c in statement_nodes(diagram)
        for s in class_supers(c)
        if s not in declared
    ]


def _cc_single_inheritance(diagram: AstNode) -> list[CCViolation]:
    return [
        _violation(
            "CC-single-inheritance-syntactic",
            c,
            f"class {class_name(c)} has {len(class_supers(c))} super-classes",
        )
        for c in statement_nodes(diagram)
        if len(class_supers(c)) > 1
    ]


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
    node: AstNode, active: Iterable[str], language: str
) -> list[CCViolation]:
    """Run the given conditions of the language on a minimal AST and return
    all violations in deterministic order."""
    conditions = CONDITIONS.get(language, {})
    violations: list[CCViolation] = []
    for cc_id in sorted(set(active)):
        condition = conditions.get(cc_id)
        if condition is None:
            raise UnknownConditionError(
                f"unknown context condition {cc_id} for language {language}"
            )
        violations.extend(condition.check(node))
    return sorted(violations)
