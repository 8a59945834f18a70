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

from dataclasses import dataclass
from typing import Callable, Iterable

from .schema import AstNode
from .semantics import class_name, class_nodes, class_supers


class UnknownConditionError(Exception):
    pass


@dataclass(frozen=True, order=True)
class CCViolation:
    condition_id: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"CC {self.condition_id} {self.line}:{self.col} {self.message}"


@dataclass(frozen=True)
class ContextCondition:
    id: str
    description: str
    optional: bool
    check: Callable[[AstNode], list[CCViolation]]


def _violation(cc_id: str, node: AstNode, message: str) -> CCViolation:
    line, col = (node.pos.line, node.pos.col) if node.pos else (0, 0)
    return CCViolation(cc_id, line, col, message)


def _cc_unique_class_names(diagram: AstNode) -> list[CCViolation]:
    seen: set[str] = set()
    violations = []
    for c in class_nodes(diagram):
        name = class_name(c)
        if name in seen:
            violations.append(
                _violation("CC-unique-class-names", c, f"duplicate class name {name}")
            )
        seen.add(name)
    return violations


def _cc_supers_declared(diagram: AstNode) -> list[CCViolation]:
    declared = {class_name(c) for c in class_nodes(diagram)}
    return [
        _violation(
            "CC-supers-declared", c, f"class {class_name(c)} extends undeclared class {s}"
        )
        for c in class_nodes(diagram)
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
        for c in class_nodes(diagram)
        if len(class_supers(c)) > 1
    ]


_CLASS_DIAGRAM = {
    cc.id: cc
    for cc in (
        ContextCondition(
            "CC-unique-class-names",
            "class names are unique within a diagram",
            optional=False,
            check=_cc_unique_class_names,
        ),
        ContextCondition(
            "CC-supers-declared",
            "every referenced super-class is declared",
            optional=True,
            check=_cc_supers_declared,
        ),
        ContextCondition(
            "CC-single-inheritance-syntactic",
            "every class has at most one super-class",
            optional=True,
            check=_cc_single_inheritance,
        ),
    )
}

CONDITIONS: dict[str, dict[str, ContextCondition]] = {
    "CD": _CLASS_DIAGRAM,
    "CDSimp": _CLASS_DIAGRAM,
}


def conditions_for(language: str) -> dict[str, ContextCondition]:
    return dict(CONDITIONS.get(language, {}))


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
