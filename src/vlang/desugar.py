"""Elimination of abbreviation (sugar) constructs from parsed ASTs.

`EXPANDERS` binds each sugar datatype of a language, keyed by (grammar name,
datatype), to the function that expands it; the bundled CD language has one,
`classes A, B;` to one plain class per name.  Desugaring walks an AST
bottom-up, replaces every sugar node by its expansion, and splices
expansions into the surrounding list.  The result contains no sugar datatype
instances and desugaring a minimal AST is the identity, so the operation is
idempotent.
"""

from __future__ import annotations

from typing import Callable

from .grammar import GrammarDef
from .schema import AstNode, required_field


class DesugarError(Exception):
    pass


def _expand_class_list(node: AstNode) -> list[AstNode]:
    return [
        AstNode(
            "CDCClass",
            {"stereotypes": frozenset(), "Name": name, "scl": []},
            pos=node.pos,
        )
        for name in required_field(node, "names", DesugarError)
    ]


EXPANDERS: dict[tuple[str, str], Callable[[AstNode], list[AstNode]]] = {
    ("CD", "CDCClasses"): _expand_class_list,
}


def desugar_to_minimal(node: AstNode, grammar: GrammarDef) -> AstNode:
    """Replace all abbreviation constructs by primitive ones; idempotent."""
    sugar = grammar.sugar_bases()

    def rewrite(n: AstNode) -> list[AstNode]:
        fields: dict[str, object] = {}
        for label, value in n.fields.items():
            fields[label] = rewrite_value(label, value, n)
        result = AstNode(n.datatype, fields, pos=n.pos)
        if n.datatype in sugar:
            expander = EXPANDERS.get((grammar.name, n.datatype))
            if expander is None:
                raise DesugarError(
                    f"no expander registered for sugar production "
                    f"{n.datatype} of language {grammar.name}"
                )
            expanded = expander(result)
            out: list[AstNode] = []
            for item in expanded:
                out.extend(rewrite(item))
            return out
        return [result]

    def rewrite_value(label: str, value: object, parent: AstNode) -> object:
        if isinstance(value, AstNode):
            nodes = rewrite(value)
            if len(nodes) != 1:
                raise DesugarError(
                    f"sugar node in field {label} of {parent.datatype} expands "
                    f"to {len(nodes)} nodes but the field holds exactly one"
                )
            return nodes[0]
        if isinstance(value, list):
            out: list[object] = []
            for item in value:
                if isinstance(item, AstNode):
                    out.extend(rewrite(item))
                else:
                    out.append(item)
            return out
        return value

    nodes = rewrite(node)
    if len(nodes) != 1:
        raise DesugarError("the root node may not be an abbreviation")
    return nodes[0]
