"""Elimination of abbreviation (sugar) constructs from parsed ASTs.

`EXPANDERS` binds each sugar datatype of a language, keyed by (grammar name,
datatype), to the function that expands it; the bundled CD language has one,
`classes A, B;` to one plain class per name.  Desugaring walks an AST
bottom-up, replaces every sugar node by its expansion, and splices
expansions into the surrounding list.  It rebuilds only the nodes on a path
to a sugar node and shares every other subtree with its input, which no
caller mutates.  The result contains no sugar datatype instances and
desugaring a minimal AST returns it, so the operation is idempotent.
"""

from __future__ import annotations

from typing import Callable

from .grammar import GrammarDef
from .schema import AstNode, hook_field


class DesugarError(Exception):
    pass


def _expand_class_list(node: AstNode) -> list[AstNode]:
    return [
        node.derived("CDCClass", {"stereotypes": frozenset(), "Name": name, "scl": []})
        for name in hook_field(node, "names", list, error=DesugarError)
    ]


EXPANDERS: dict[tuple[str, str], Callable[[AstNode], list[AstNode]]] = {
    ("CD", "CDCClasses"): _expand_class_list,
}


def desugar_to_minimal(node: AstNode, grammar: GrammarDef) -> AstNode:
    """Replace all abbreviation constructs by primitive ones; idempotent.
    `node` is a parse by `grammar`.  Only the nodes on a path to a sugar node
    are rebuilt, and only those of a datatype that may hold one are visited:
    every other subtree of the result is the input's own, and a tree without
    sugar is returned as it is."""
    sugar = grammar.sugar_bases()
    # The datatypes whose nodes may hold a sugar node: the sugar datatypes,
    # and by the schema each datatype with a field that may hold one.
    holders, bases = set(sugar), set(sugar.values())
    while grown := {
        dt.name
        for dt in grammar.schema.datatypes
        if dt.name not in holders and any(f.target in holders or f.target in bases for f in dt.fields)
    }:
        holders |= grown

    def rewrite(n: AstNode) -> list[AstNode]:
        if n.datatype not in holders:
            return [n]
        fields = n.fields
        for label, value in n.fields.items():
            new = rewrite_value(label, value, n)
            if new is not value:
                if fields is n.fields:
                    fields = dict(fields)
                fields[label] = new
        result = n if fields is n.fields else n.derived(n.datatype, fields)
        if n.datatype in sugar:
            expander = EXPANDERS.get((grammar.name, n.datatype))
            if expander is None:
                raise DesugarError(
                    f"no expander registered for sugar production "
                    f"{n.datatype} of language {grammar.name}"
                )
            out: list[AstNode] = []
            for item in expander(result):
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
            # Copied from the first item that changes on.
            out: list[object] | None = None
            for i, item in enumerate(value):
                if isinstance(item, AstNode):
                    nodes = rewrite(item)
                    if out is None and (len(nodes) != 1 or nodes[0] is not item):
                        out = value[:i]
                    if out is not None:
                        out.extend(nodes)
                elif out is not None:
                    out.append(item)
            return value if out is None else out
        return value

    nodes = rewrite(node)
    if len(nodes) != 1:
        raise DesugarError("the root node may not be an abbreviation")
    return nodes[0]
