"""Elimination of abbreviation (sugar) constructs from parsed ASTs.

`EXPANDERS` binds each sugar datatype of a language, keyed by (root datatype,
sugar datatype), to its expander, the fields it reads and the production and
fields it builds; class diagrams have one, `classes A, B;` to plain classes.
A grammar's `desugarer` checks these against its schema once, so that an
expander reads fields directly and builds nodes of the schema; a command
desugars each grammar's models through one desugarer.  Desugaring
walks an AST bottom-up, replaces every sugar node by its expansion, and
splices expansions into the surrounding list.  It rebuilds only the nodes
on a path to a sugar node and shares every other subtree with its input,
which no caller mutates.  The result contains no sugar datatype instances
and desugaring a minimal AST returns it, so the operation is idempotent.
"""

from __future__ import annotations

from typing import Callable

from .grammar import GrammarDef
from .lexer import RefusalError
from .schema import AstNode, SchemaField, Signature, check_fields, field_type

Expander = Callable[[AstNode], list[AstNode]]


class DesugarError(RefusalError):
    pass


def _expand_class_list(node: AstNode) -> list[AstNode]:
    return [
        node.derived("CDCClass", {"stereotypes": frozenset(), "Name": name, "scl": []})
        for name in node.fields["names"]
    ]


# (root datatype, sugar datatype) -> the fields its expander reads, the
# production it expands to with exactly the fields it builds, and the expander.
EXPANDERS: dict[tuple[str, str], tuple[Signature, str, frozenset[SchemaField], Expander]] = {
    ("CDDefinition", "CDCClasses"): (
        {"names": ("IDENT list",)}, "CDCClass",
        frozenset({SchemaField("Name", "IDENT"), SchemaField("scl", "IDENT", "list"),
                   SchemaField("stereotypes", "IDENT", "set")}), _expand_class_list),
}


def bound_expanders(grammar: GrammarDef) -> dict[str, Expander]:
    """The expander bound to each sugar datatype of `grammar` that has one,
    once what it reads and builds matches the schema (see `EXPANDERS`)."""
    bound = {}
    for datatype, base in grammar.sugar_bases().items():
        row = EXPANDERS.get((grammar.start_production, datatype))
        if row is not None:
            reads, target, builds, expander = row
            check_fields(grammar.schema, datatype, reads)
            if base != target or set(grammar.schema.datatype(base).fields) != builds:
                fields = ", ".join(f"{f.label}: {field_type(f)}" for f in sorted(builds))
                raise DesugarError(f"{datatype} must be sugar for {target}({fields})")
            bound[datatype] = expander
    return bound


def desugar_to_minimal(node: AstNode, grammar: GrammarDef) -> AstNode:
    """Replace all abbreviation constructs by primitive ones; idempotent.
    `node` is a parse by `grammar`.  Only the nodes on a path to a sugar node
    are rebuilt, and only those of a datatype that may hold one are visited:
    every other subtree of the result is the input's own, and a tree without
    sugar is returned as it is."""
    return desugarer(grammar)(node)


def desugarer(grammar: GrammarDef) -> Callable[[AstNode], AstNode]:
    """`desugar_to_minimal` of the models of `grammar`, as a function of the
    model alone: the expanders are bound, and the datatypes that may hold
    sugar worked out, once."""
    sugar = grammar.sugar_bases()
    expanders = bound_expanders(grammar)
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
            expander = expanders.get(n.datatype)
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
            # Copied from the first item that changes on.  A list holds
            # nodes only or IDENTs only: a label has one target.
            out: list[object] | None = None
            for i, item in enumerate(value):
                if isinstance(item, AstNode):
                    nodes = rewrite(item)
                    if out is None and (len(nodes) != 1 or nodes[0] is not item):
                        out = value[:i]
                    if out is not None:
                        out.extend(nodes)
            return value if out is None else out
        return value

    def desugar(node: AstNode) -> AstNode:
        nodes = rewrite(node)
        if len(nodes) != 1:
            raise DesugarError("the root node may not be an abbreviation")
        return nodes[0]

    return desugar
