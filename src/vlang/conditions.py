"""Context conditions: configurable well-formedness checks over minimal ASTs.

`CONDITIONS` binds each language (grammar name) to its conditions, keyed by
id.  CD and CDSimp share the class-diagram conditions:

  CC-unique-class-names           (always active) class names unique
  CC-supers-declared              (optional) every super is a declared class
  CC-single-inheritance-syntactic (optional) at most one super per class

Non-optional conditions always apply; optional ones are selected by id.
A condition's id is its key alone: its check is a total predicate yielding
the (node, message) pairs it finds, which `check_context_conditions` reports
under that key, ordered by (condition id, source position).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .grammar import GrammarDef
from .lexer import RefusalError
from .schema import CLASS_FIELDS, AstNode, check_statements, class_supers, statement_nodes


class UnknownConditionError(RefusalError):
    pass


class CCViolation(NamedTuple):
    condition_id: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"CC {self.condition_id} {self.line}:{self.col} {self.message}"


class ContextCondition(NamedTuple):
    optional: bool
    check: Callable[[list[AstNode]], Iterable[tuple[AstNode, str]]]


def _violation(cc_id: str, node: AstNode, message: str) -> CCViolation:
    line, col = node.pos or (0, 0)
    return CCViolation(cc_id, line, col, message)


def _cc_unique_class_names(classes: list[AstNode]) -> Iterable[tuple[AstNode, str]]:
    seen: set[str] = set()
    for c in classes:
        name = c.fields["Name"]
        if name in seen:
            yield c, f"duplicate class name {name}"
        seen.add(name)


def _cc_supers_declared(classes: list[AstNode]) -> Iterable[tuple[AstNode, str]]:
    declared = {c.fields["Name"] for c in classes}
    for c in classes:
        for s in class_supers(c):
            if s not in declared:
                yield c, f"class {c.fields['Name']} extends undeclared class {s}"


def _cc_single_inheritance(classes: list[AstNode]) -> Iterable[tuple[AstNode, str]]:
    for c in classes:
        supers = class_supers(c)
        if len(supers) > 1:
            yield c, f"class {c.fields['Name']} has {len(supers)} super-classes"


_CLASS_DIAGRAM = {
    "CC-unique-class-names": ContextCondition(optional=False, check=_cc_unique_class_names),
    "CC-supers-declared": ContextCondition(optional=True, check=_cc_supers_declared),
    "CC-single-inheritance-syntactic": ContextCondition(optional=True, check=_cc_single_inheritance),
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
    fields the conditions read (`schema.CLASS_FIELDS`); a grammar without
    them is refused with `lexer.RefusalError`."""
    conditions = CONDITIONS.get(grammar.name, {})
    checks = []
    for cc_id in sorted(set(active)):
        condition = conditions.get(cc_id)
        if condition is None:
            raise UnknownConditionError(
                f"unknown context condition {cc_id} for language {grammar.name}"
            )
        checks.append((cc_id, condition.check))
    if not checks:
        return []
    check_statements(grammar.schema, grammar.start_production, CLASS_FIELDS, RefusalError)
    classes = statement_nodes(node)
    return sorted(
        _violation(cc_id, c, message) for cc_id, check in checks for c, message in check(classes)
    )
