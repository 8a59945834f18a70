"""Abstract-syntax schemas derived from grammars, and generic AST nodes.

Each production of a grammar yields exactly one datatype, derived by the
same walk of the production that validates it (`grammar.parse_grammar`)
and carried by the grammar as its `schema`.  Terminals and synonym groups
are dropped; labeled references become fields.  A field is a target and a
card, in the words of the dump: the target is ``IDENT`` or a production
name, and the card is empty (exactly one), ``list`` (a reference under a
star, or occurring more than once), ``option`` (a reference under an
option) or ``set`` (the ``stereotypes`` field of a stereotype slot, a set
of IDENTs).

The schema dump renders the derived datatypes as a plain-text theory
document, one ``datatype <Name> = <Name> <argument types>`` line per
production, dependencies first.  It is deterministic and used for golden
tests.

The hooks a language binds by name (expanders, context conditions, the
mapping compile) declare the fields they read as a `Signature` in the same
words.  `check_fields` checks a schema against one once per command; the
hooks then read the fields of the nodes a parse gives directly.  The
class-diagram hooks share `CLASS_FIELDS`, checked on a model's statements
by `check_statements`, and read them with `statement_nodes` and
`class_supers`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

IDENT_TOKEN = "IDENT"  # the target of an identifier field
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

    def datatype(self, name: str) -> SchemaDatatype:
        return next(dt for dt in self.datatypes if dt.name == name)


# The fields a hook reads, label -> the types each may have, in the words of
# the dump ("IDENT", "IDENT list", "CDCClass"); None where it may be absent.
Signature = dict[str, tuple[str | None, ...]]


# ---------------------------------------------------------------------------
# Schema dump
# ---------------------------------------------------------------------------

def _words(f: SchemaField) -> str:
    return f"{f.target} {f.card}" if f.card else f.target


def _quoted(words: str) -> str:
    return f'"{words}"' if " " in words else words


def field_type(f: SchemaField) -> str:
    """The type of `f` as the dump writes it: ``IDENT``, ``"IDENT list"``."""
    return _quoted(_words(f))


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
        args = " ".join(field_type(f) for f in dt.fields)
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


def check_fields(
    schema: AstSchema, datatype: str, signature: Signature, error: type[Exception]
) -> None:
    """Refuse with `error` a `datatype` of `schema` whose fields do not match
    `signature`: each field it names must have one of the types listed for
    it, or be absent where None is listed.  A parse conforms to its
    grammar's schema, so a hook that checks the schema once, when a command
    binds it, reads its nodes' fields directly."""
    fields = {f.label: f for f in schema.datatype(datatype).fields}
    for label, types in signature.items():
        field = fields.get(label)
        if field is None:
            if None not in types:
                raise error(f"{datatype} has no field {label}")
        elif _words(field) not in types:
            expected = " or ".join(_quoted(t) for t in types if t is not None)
            raise error(f"{datatype} field {label} is {field_type(field)}, expected {expected}")


# The fields the class-diagram hooks (context conditions, the mapping
# compile) read of a class statement: its name, its supers (`("extends"
# scl:IDENT)?` holds one name, not a list) and its stereotypes.
CLASS_FIELDS: Signature = {
    "Name": ("IDENT",),
    "scl": ("IDENT list", "IDENT option", None),
    "stereotypes": ("IDENT set", None),
}


def check_statements(
    schema: AstSchema, root: str, signature: Signature, error: type[Exception]
) -> None:
    """Refuse with `error` a `root` datatype of `schema` unless it has
    exactly one list field, of a production (its statements) whose fields
    match `signature` (`check_fields`)."""
    lists = [f for f in schema.datatype(root).fields if f.card == "list"]
    if len(lists) != 1:
        raise error(f"{root} has {len(lists)} list fields, expected exactly one")
    (statements,) = lists
    if statements.target == IDENT_TOKEN:
        raise error(
            f"{root} field {statements.label} is {field_type(statements)}, "
            "expected a production list"
        )
    check_fields(schema, statements.target, signature, error)


def statement_nodes(root: AstNode) -> list[AstNode]:
    """The statements of a class diagram or an assertion document, whose
    grammar passed `check_statements`: its one list field."""
    return next(v for v in root.fields.values() if type(v) is list)


def class_supers(class_node: AstNode) -> list[str]:
    """The declared supers, the node's own list where it holds one."""
    supers = class_node.fields.get("scl")
    if supers is None:
        return []
    return [supers] if type(supers) is str else supers


def dump_ast(node: AstNode) -> str:
    """Deterministic one-line rendering of an AST; positions excluded, fields
    sorted by label."""
    out: list[str] = []
    put = out.append
    # Per datatype and label sequence met: each label, sorted, and its
    # " label=" prefix.
    orders: dict[tuple[str, ...], list[tuple[str, str]]] = {}

    def value(v: object) -> None:
        t = type(v)
        if t is str:
            put(v)
        elif t is AstNode:
            fields = v.fields
            key = (v.datatype, *fields)
            order = orders.get(key)
            if order is None:
                order = orders[key] = [(label, f" {label}=") for label in sorted(fields)]
            put("(" + v.datatype)
            for label, prefix in order:
                x = fields[label]
                if type(x) is str:
                    put(prefix + x)
                else:
                    put(prefix)
                    value(x)
            put(")")
        elif v is None:
            put("-")
        elif t is list:
            if not v:
                put("[]")
                return
            put("[")
            for x in v:
                if type(x) is str:
                    put(x)
                else:
                    value(x)
                put(",")
            out[-1] = "]"  # the last item's comma
        elif t is frozenset or t is set:
            put("{" + ",".join(sorted(v)) + "}")
        else:
            raise TypeError(f"not an AST value: {v!r}")

    value(node)
    return "".join(out)
