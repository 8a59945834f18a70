"""Abstract-syntax schemas derived from grammars, and generic AST nodes.

Each production of a grammar yields exactly one datatype.  Terminals and
synonym groups are dropped; labeled references become fields; references
under a star (or occurring more than once) become list fields; references
under an option become option fields; a stereotype slot becomes a
`stereotypes` set field.

The schema dump renders the derived datatypes as a plain-text theory
document, one ``datatype <Name> = <Name> <argument types>`` line per
production, dependencies first.  It is deterministic and used for golden
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .grammar import (
    IDENT_TOKEN,
    Element,
    GrammarDef,
    GrammarError,
    Group,
    NonterminalRef,
    Production,
    StereotypeSlot,
    Terminal,
    TerminalSynonyms,
)

STEREOTYPE_FIELD = "stereotypes"


# ---------------------------------------------------------------------------
# Field types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ident:
    pass


@dataclass(frozen=True)
class NodeRef:
    target: str


@dataclass(frozen=True)
class ListOf:
    item: "FieldType"


@dataclass(frozen=True)
class OptionOf:
    item: "FieldType"


@dataclass(frozen=True)
class StereotypeSet:
    pass


FieldType = Union[Ident, NodeRef, ListOf, OptionOf, StereotypeSet]


@dataclass(frozen=True)
class SchemaField:
    label: str
    type: FieldType


@dataclass(frozen=True)
class SchemaDatatype:
    name: str
    constructor: str
    fields: tuple[SchemaField, ...]
    sugar_for: str | None = None


@dataclass(frozen=True)
class AstSchema:
    language: str
    datatypes: tuple[SchemaDatatype, ...]

    def datatype(self, name: str) -> SchemaDatatype:
        for dt in self.datatypes:
            if dt.name == name:
                return dt
        raise KeyError(name)

    def sugar_bases(self) -> dict[str, str]:
        return {dt.name: dt.sugar_for for dt in self.datatypes if dt.sugar_for}


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def _base_type(ref: NonterminalRef) -> FieldType:
    return Ident() if ref.target == IDENT_TOKEN else NodeRef(ref.target)


def _derive_fields(prod: Production) -> tuple[SchemaField, ...]:
    order: list[str] = []
    bases: dict[str, FieldType] = {}
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}

    def add(label: str, base: FieldType, mult_lo: float, mult_hi: float) -> None:
        if label in bases:
            if bases[label] != base:
                raise GrammarError(
                    f"field {label} of {prod.name} is used with conflicting types"
                )
            lo[label] += mult_lo
            hi[label] += mult_hi
        else:
            order.append(label)
            bases[label] = base
            lo[label] = mult_lo
            hi[label] = mult_hi

    def walk(elements: tuple[Element, ...], mult_lo: float, mult_hi: float) -> None:
        for el in elements:
            if isinstance(el, (Terminal, TerminalSynonyms)):
                continue
            if isinstance(el, StereotypeSlot):
                if (mult_lo, mult_hi) != (1, 1) or STEREOTYPE_FIELD in bases:
                    raise GrammarError(
                        f"production {prod.name}: a stereotype slot must appear "
                        "exactly once, outside groups"
                    )
                add(STEREOTYPE_FIELD, StereotypeSet(), 1, 1)
            elif isinstance(el, NonterminalRef):
                add(el.field_label, _base_type(el), mult_lo, mult_hi)
            elif isinstance(el, Group):
                if el.cardinality == "optional":
                    walk(el.elements, 0, mult_hi)
                elif el.cardinality == "star":
                    walk(el.elements, 0, math.inf)
                else:
                    walk(el.elements, mult_lo, mult_hi)

    walk(prod.elements, 1, 1)

    fields: list[SchemaField] = []
    for label in order:
        base = bases[label]
        if isinstance(base, StereotypeSet):
            fields.append(SchemaField(label, base))
        elif hi[label] > 1:
            fields.append(SchemaField(label, ListOf(base)))
        elif lo[label] == 0:
            fields.append(SchemaField(label, OptionOf(base)))
        else:
            fields.append(SchemaField(label, base))
    return tuple(fields)


def derive_schema(g: GrammarDef) -> AstSchema:
    """Derive the abstract-syntax schema of a grammar: one datatype per
    production, in declaration order."""
    datatypes = tuple(
        SchemaDatatype(p.name, p.name, _derive_fields(p), p.sugar_for)
        for p in g.productions
    )
    return AstSchema(g.name, datatypes)


# ---------------------------------------------------------------------------
# Schema dump
# ---------------------------------------------------------------------------

def _render_type(t: FieldType) -> str:
    if isinstance(t, Ident):
        return IDENT_TOKEN
    if isinstance(t, NodeRef):
        return t.target
    if isinstance(t, ListOf):
        return f"{_render_type(t.item)} list"
    if isinstance(t, OptionOf):
        return f"{_render_type(t.item)} option"
    if isinstance(t, StereotypeSet):
        return f"{IDENT_TOKEN} set"
    raise TypeError(t)


def _render_argument(t: FieldType) -> str:
    rendered = _render_type(t)
    return f'"{rendered}"' if " " in rendered else rendered


def _node_targets(t: FieldType) -> set[str]:
    if isinstance(t, NodeRef):
        return {t.target}
    if isinstance(t, (ListOf, OptionOf)):
        return _node_targets(t.item)
    return set()


def _dependency_order(schema: AstSchema) -> list[SchemaDatatype]:
    """Datatypes with their dependencies first; ties broken by declaration
    order, cycles broken at the first remaining datatype."""
    remaining = list(schema.datatypes)
    emitted: set[str] = set()
    out: list[SchemaDatatype] = []
    while remaining:
        for dt in remaining:
            deps = set()
            for f in dt.fields:
                deps |= _node_targets(f.type)
            if deps - {dt.name} <= emitted:
                chosen = dt
                break
        else:
            chosen = remaining[0]
        remaining.remove(chosen)
        emitted.add(chosen.name)
        out.append(chosen)
    return out


def dump_schema(schema: AstSchema) -> str:
    lines = [f"theory {schema.language}AS imports GeneralAS", "begin"]
    for dt in _dependency_order(schema):
        args = " ".join(_render_argument(f.type) for f in dt.fields)
        decl = f"datatype {dt.name} = {dt.constructor}"
        lines.append(f"{decl} {args}" if args else decl)
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourcePos:
    line: int
    col: int


@dataclass(frozen=True)
class AstNode:
    """A schema-conformant abstract-syntax tree node.

    Field values are identifiers (str), child nodes, lists of values, None
    for an absent optional, or a frozenset of stereotype names.  Source
    positions are diagnostic only and excluded from equality.
    """

    datatype: str
    fields: dict[str, object]
    pos: SourcePos | None = field(default=None, compare=False)


def required_field(node: AstNode, label: str, error: type[Exception]) -> object:
    """Field `label` of `node`, or `error` naming both when a grammar that
    reuses a hook's name gave the node no such field."""
    try:
        return node.fields[label]
    except KeyError:
        raise error(f"{node.datatype} has no field {label}") from None


def _dump_value(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, AstNode):
        return dump_ast(v)
    if isinstance(v, list):
        return "[" + ",".join(_dump_value(x) for x in v) + "]"
    if isinstance(v, (set, frozenset)):
        return "{" + ",".join(sorted(v)) + "}"
    raise TypeError(f"not an AST value: {v!r}")


def dump_ast(node: AstNode) -> str:
    """Deterministic one-line rendering of an AST; positions excluded, fields
    sorted by label."""
    parts = [node.datatype]
    for label in sorted(node.fields):
        parts.append(f"{label}={_dump_value(node.fields[label])}")
    return "(" + " ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def conformance_violations(node: AstNode, schema: AstSchema) -> list[str]:
    """All ways `node` fails to conform to `schema`; empty when conformant.

    A field typed Node(T) also accepts instances of sugar datatypes declared
    for T (they are eliminated by desugaring).
    """
    sugar_bases = schema.sugar_bases()
    problems: list[str] = []

    def check_value(path: str, v: object, t: FieldType) -> None:
        if isinstance(t, Ident):
            if not isinstance(v, str):
                problems.append(f"{path}: expected identifier, got {type(v).__name__}")
        elif isinstance(t, NodeRef):
            if not isinstance(v, AstNode):
                problems.append(f"{path}: expected {t.target} node, got {type(v).__name__}")
            elif v.datatype != t.target and sugar_bases.get(v.datatype) != t.target:
                problems.append(f"{path}: expected {t.target} node, got {v.datatype}")
            else:
                check_node(path, v)
        elif isinstance(t, ListOf):
            if not isinstance(v, list):
                problems.append(f"{path}: expected list, got {type(v).__name__}")
            else:
                for i, item in enumerate(v):
                    check_value(f"{path}[{i}]", item, t.item)
        elif isinstance(t, OptionOf):
            if v is not None:
                check_value(path, v, t.item)
        elif isinstance(t, StereotypeSet):
            if not isinstance(v, (set, frozenset)) or not all(
                isinstance(s, str) for s in v
            ):
                problems.append(f"{path}: expected a set of stereotype names")

    def check_node(path: str, n: AstNode) -> None:
        try:
            dt = schema.datatype(n.datatype)
        except KeyError:
            problems.append(f"{path}: unknown datatype {n.datatype}")
            return
        declared = {f.label for f in dt.fields}
        for extra in sorted(set(n.fields) - declared):
            problems.append(f"{path}: unexpected field {extra}")
        for f in dt.fields:
            if f.label not in n.fields:
                problems.append(f"{path}: missing field {f.label}")
            else:
                check_value(f"{path}.{f.label}", n.fields[f.label], f.type)

    check_node(node.datatype, node)
    return problems


def conforms(node: AstNode, schema: AstSchema) -> bool:
    return not conformance_violations(node, schema)
