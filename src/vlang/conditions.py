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

The conditions of one check run in id order and share one record of the
diagram's classes (`_Classes`), which reads each class's Name and supers at
most once, where a condition first needs them; so a field of the wrong shape
is refused at the same read as when each condition read its own fields.
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


class _Classes(NamedTuple):
    """A diagram's class statements, and each one's Name and supers, None
    until read."""

    nodes: list[AstNode]
    names: list
    supers: list


class ContextCondition(NamedTuple):
    id: str
    optional: bool
    check: Callable[[_Classes], list[CCViolation]]


def _violation(cc_id: str, node: AstNode, message: str) -> CCViolation:
    line, col = node.pos or (0, 0)
    return CCViolation(cc_id, line, col, message)


def _every(values: list, read: Callable[[AstNode], object], nodes: list[AstNode]) -> list:
    """Every class's field, read in statement order where it is not yet."""
    if None in values:
        values[:] = [read(c) if v is None else v for v, c in zip(values, nodes)]
    return values


def _cc_unique_class_names(classes: _Classes) -> list[CCViolation]:
    seen: set[str] = set()
    violations = []
    for c, name in zip(classes.nodes, _every(classes.names, class_name, classes.nodes)):
        if name in seen:
            violations.append(
                _violation("CC-unique-class-names", c, f"duplicate class name {name}")
            )
        seen.add(name)
    return violations


def _cc_supers_declared(classes: _Classes) -> list[CCViolation]:
    # Every name before any super: a Name defect is reported first.
    nodes = classes.nodes
    names = _every(classes.names, class_name, nodes)
    declared = set(names)
    return [
        _violation("CC-supers-declared", c, f"class {name} extends undeclared class {s}")
        for c, name, supers in zip(nodes, names, _every(classes.supers, class_supers, nodes))
        for s in supers
        if s not in declared
    ]


def _cc_single_inheritance(classes: _Classes) -> list[CCViolation]:
    # Class by class: its supers, and then the Name of one with several.
    nodes, names, supers = classes
    violations = []
    for i, c in enumerate(nodes):
        if supers[i] is None:
            supers[i] = class_supers(c)
        if len(supers[i]) > 1:
            if names[i] is None:
                names[i] = class_name(c)
            message = f"class {names[i]} has {len(supers[i])} super-classes"
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
    node: AstNode, active: Iterable[str], language: str
) -> list[CCViolation]:
    """Run the given conditions of the language on a minimal AST and return
    all violations in deterministic order."""
    conditions = CONDITIONS.get(language, {})
    violations: list[CCViolation] = []
    classes = None
    for cc_id in sorted(set(active)):
        condition = conditions.get(cc_id)
        if condition is None:
            raise UnknownConditionError(
                f"unknown context condition {cc_id} for language {language}"
            )
        if classes is None:
            nodes = statement_nodes(node)
            classes = _Classes(nodes, [None] * len(nodes), [None] * len(nodes))
        violations.extend(condition.check(classes))
    return sorted(violations)
