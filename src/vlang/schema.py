"""Abstract-syntax schemas derived from grammars, and generic AST nodes.

Each production of a grammar yields exactly one datatype.  Terminals and
synonym groups are dropped; labeled references become fields.  A field is a
target and a card, in the words of the dump: the target is ``IDENT`` or a
production name, and the card is empty (exactly one), ``list`` (a reference
under a star, or occurring more than once), ``option`` (a reference under an
option) or ``set`` (the ``stereotypes`` field of a stereotype slot, a set of
IDENTs).

The schema dump renders the derived datatypes as a plain-text theory
document, one ``datatype <Name> = <Name> <argument types>`` line per
production, dependencies first.  It is deterministic and used for golden
tests.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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
# Schema records
# ---------------------------------------------------------------------------

class SchemaField(NamedTuple):
    label: str
    target: str  # IDENT or a production name
    card: str = ""  # "" (exactly one), "list", "option" or "set"


class SchemaDatatype(NamedTuple):
    name: str
    fields: tuple[SchemaField, ...]
    sugar_for: str | None = None


class AstSchema(NamedTuple):
    language: str
    datatypes: tuple[SchemaDatatype, ...]


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

# The base of a stereotype slot while fields are collected: no reference
# target equals it, so a reference labeled `stereotypes` conflicts with it.
_SLOT = "<<?>>"


def _derive_fields(prod: Production) -> tuple[SchemaField, ...]:
    order: list[str] = []
    bases: dict[str, str] = {}
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}

    def add(label: str, base: str, mult_lo: float, mult_hi: float) -> None:
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
                add(STEREOTYPE_FIELD, _SLOT, 1, 1)
            elif isinstance(el, NonterminalRef):
                add(el.field_label, el.target, mult_lo, mult_hi)
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
        if base == _SLOT:
            fields.append(SchemaField(label, IDENT_TOKEN, "set"))
        elif hi[label] > 1:
            fields.append(SchemaField(label, base, "list"))
        elif lo[label] == 0:
            fields.append(SchemaField(label, base, "option"))
        else:
            fields.append(SchemaField(label, base))
    return tuple(fields)


def derive_schema(g: GrammarDef) -> AstSchema:
    """Derive the abstract-syntax schema of a grammar: one datatype per
    production, in declaration order."""
    datatypes = tuple(
        SchemaDatatype(p.name, _derive_fields(p), p.sugar_for)
        for p in g.productions
    )
    return AstSchema(g.name, datatypes)


# ---------------------------------------------------------------------------
# Schema dump
# ---------------------------------------------------------------------------

def _render_argument(f: SchemaField) -> str:
    return f'"{f.target} {f.card}"' if f.card else f.target


def _dependency_order(schema: AstSchema) -> list[SchemaDatatype]:
    """Datatypes with their dependencies first; ties broken by declaration
    order, cycles broken at the first remaining datatype."""
    remaining = list(schema.datatypes)
    emitted: set[str] = set()
    out: list[SchemaDatatype] = []
    while remaining:
        for dt in remaining:
            deps = {f.target for f in dt.fields} - {IDENT_TOKEN, dt.name}
            if deps <= emitted:
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
        args = " ".join(_render_argument(f) for f in dt.fields)
        decl = f"datatype {dt.name} = {dt.name}"
        lines.append(f"{decl} {args}" if args else decl)
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class SourcePos(NamedTuple):
    line: int
    col: int


class AstNode:
    """A schema-conformant abstract-syntax tree node.

    Field values are identifiers (str), child nodes, lists of values, None
    for an absent optional, or a frozenset of stereotype names.  Source
    positions are diagnostic only and excluded from equality.  A node is
    given its `pos`, or, by a parser, the index of its first token as `pos`
    and a `locate` that maps the index to a line and column: then `pos` is
    computed on first read and kept.
    """

    __slots__ = ("datatype", "fields", "_pos", "_locate")

    def __init__(
        self,
        datatype: str,
        fields: dict[str, object],
        pos: SourcePos | int | None = None,
        locate: Callable[[int], tuple[int, int]] | None = None,
    ):
        self.datatype = datatype
        self.fields = fields
        self._pos = pos
        self._locate = locate

    @property
    def pos(self) -> SourcePos | None:
        locate = self._locate
        if locate is None:
            return self._pos
        self._pos = pos = SourcePos(*locate(self._pos))
        self._locate = None
        return pos

    def derived(self, datatype: str, fields: dict[str, object]) -> AstNode:
        """A node of `datatype` and `fields` at this node's position; a
        position not yet computed is copied as it is."""
        return AstNode(datatype, fields, self._pos, self._locate)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.datatype == self.datatype
            and other.fields == self.fields
        )

    def __repr__(self) -> str:
        return f"AstNode({self.datatype!r}, {self.fields!r}, pos={self.pos!r})"


_SHAPES = {str: "an IDENT", list: "a list of IDENTs", frozenset: "a stereotype set"}


def hook_field(
    node: AstNode, label: str, *shapes: type, error: type[Exception], optional: bool = False
) -> object:
    """Field `label` of `node` as one of `shapes`: `str` (one IDENT, the
    default), `list` (of IDENTs) or `frozenset` (a stereotype set); with
    `optional`, None when the field is absent or empty.  A grammar that
    reuses a hook's name may give the node no such field, or one of another
    shape; `error` then names the datatype and the field."""
    value = node.fields.get(label)
    shapes = shapes or (str,)
    # One exact type test, and for a list one pass over its items, decide;
    # what follows only picks the message.
    shape = type(value)
    if shape in shapes and (shape is not list or all(type(v) is str for v in value)):
        return value
    if optional and value is None:
        return None
    if label not in node.fields:
        raise error(f"{node.datatype} has no field {label}")
    raise error(f"{node.datatype} field {label} is not {' or '.join(_SHAPES[s] for s in shapes)}")


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
