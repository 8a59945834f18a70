"""Language-definition grammars: the .mclang format and its parser.

A grammar file defines the concrete syntax of one textual modeling language
as an extended context-free grammar:

    grammar CD {
        CDDefinition = "classdiagram" Name:IDENT "{" (classes:CDCClass)* "}";
        CDCClass = <<?>> "class" Name:IDENT
                   (("extends" | "ext") scl:IDENT ("," scl:IDENT)*)? ";";
        sugar CDCClasses for CDCClass = "classes" names:IDENT ("," names:IDENT)* ";";
    }

Element forms inside a production:

    "text"              terminal; word-like terminals become reserved keywords
    ("a" | "b" | ...)   terminal synonyms; the first alternative is canonical
    label:Target        nonterminal reference (Target: production name or IDENT)
    Target              unlabeled reference; field label defaults to Target
    ( ... ) ( ... )? ( ... )*   group with cardinality once / optional / star
    ref? ref*           cardinality directly on a single reference
    <<?>>               stereotype slot: the model may carry <<name>> annotations

``sugar X for Y = ...;`` declares an abbreviation production X that is
accepted wherever Y is referenced.  Abbreviations are eliminated by
desugaring (see vlang.desugar) and never survive into minimal abstract
syntax.

Restrictions (enforced here): alternation only among terminals, cardinality
suffixes only on groups and single nonterminal references, production names
unique, every referenced nonterminal defined, references to the built-in
token IDENT must carry a label, no production reaching itself before
consuming a token (left recursion), every production deriving some finite
model, every terminal and synonym spelling scanning as one model token.

The reader takes the scanner's token columns and reads each token by index.
Validation walks each production once, depth first: the walk checks the
references, collects the terminal spellings, and derives the production's
schema datatype (see vlang.schema), whose field errors are reported only
after every other check has passed.  The recursion checks then work on what
the walk collected, and read the elements again only up to the first token
of each production.

Grammar files and the models they define are read by the shared scanner of
vlang.lexer; only grammar files have quoted strings.  The vocabulary of the
models, derived once by validation, is carried by the GrammarDef: word-like
terminals are keywords, every other terminal is punctuation, and stereotype
slots add ``<<`` and ``>>`` (an IDENT may not equal a keyword).
"""

from __future__ import annotations

from functools import cache
from itertools import zip_longest
from math import inf
from typing import TYPE_CHECKING, Iterable, NamedTuple, Union

from .lexer import IDENT, SourceError, TokenPattern, Tokens, scan, token_pattern

if TYPE_CHECKING:
    from .schema import AstSchema

IDENT_TOKEN = "IDENT"

_PUNCT = ("<<?>>", "{", "}", "(", ")", "*", "?", "|", ":", ";", "=")
_CARDINALITY = {"*": "star", "?": "optional"}
# The target of a stereotype slot's field while fields are collected: no
# reference target equals it, so a reference labeled `stereotypes` conflicts
# with it.
_SLOT = "<<?>>"


@cache
def _pattern() -> TokenPattern:
    """The scanner pattern of grammar files, built at the first parse."""
    return token_pattern(_PUNCT, strings=True)


class GrammarError(SourceError):
    """Raised for malformed grammar definitions."""


class _TooDeep(Exception):
    """Internal: the reader passed the recursion limit in the group opened
    at token index ``args[0]``."""


# ---------------------------------------------------------------------------
# Grammar model
# ---------------------------------------------------------------------------

class Marker:
    """A record without fields: equal to, and hashing like, the instances
    of its own class only (a field-less `NamedTuple` would equal `()` and
    every other one)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Terminal(NamedTuple):
    text: str

    def all_spellings(self) -> tuple[str, ...]:
        return (self.text,)


class TerminalSynonyms(NamedTuple):
    """A terminal with presentation-only alternative spellings."""

    canonical: str
    alternatives: tuple[str, ...]

    def all_spellings(self) -> tuple[str, ...]:
        return (self.canonical, *self.alternatives)


class NonterminalRef(NamedTuple):
    label: str | None
    target: str

    @property
    def field_label(self) -> str:
        return self.label if self.label is not None else self.target


class Group(NamedTuple):
    elements: tuple["Element", ...]
    cardinality: str  # "once" | "optional" | "star"


class StereotypeSlot(Marker):
    __slots__ = ()


Element = Union[Terminal, TerminalSynonyms, NonterminalRef, Group, StereotypeSlot]


class Production(NamedTuple):
    name: str
    elements: tuple[Element, ...]
    sugar_for: str | None = None


class GrammarDef(NamedTuple):
    name: str
    productions: tuple[Production, ...]
    start_production: str
    # Derived once, by the validation of `parse_grammar`, with the model
    # vocabulary: the pattern models are scanned with, and their keywords.
    # A reference to a production parses one of its `alternatives`: the
    # production and then its sugar productions, in declaration order.
    schema: AstSchema | None = None
    model_pattern: TokenPattern | None = None
    keywords: frozenset[str] = frozenset()
    alternatives: dict[str, tuple[str, ...]] | None = None

    def production(self, name: str) -> Production:
        for p in self.productions:
            if p.name == name:
                return p
        raise KeyError(name)

    def sugar_bases(self) -> dict[str, str]:
        return {p.name: p.sugar_for for p in self.productions if p.sugar_for}


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

def _read(tokens: Tokens) -> GrammarDef:
    """The grammar the token columns spell.  Each check reads its token by
    index, kind and text (a string may have the text of a mark), and no
    index passes the "eof" token."""
    kinds, texts, fail = tokens.kinds, tokens.texts, tokens.fail

    def ident(i: int, text: str | None = None) -> str:
        if kinds[i] != "ident" or text not in (None, texts[i]):
            raise fail(i, f"expected {text or 'ident'!r}", got=True)
        return texts[i]

    def mark(i: int, text: str) -> None:
        if texts[i] != text or kinds[i] != "punct":
            raise fail(i, f"expected {text!r}", got=True)

    def reject_cardinality(i: int, what: str) -> None:
        """Called where token `i` is ``*`` or ``?`` by its text."""
        if kinds[i] == "punct":
            raise fail(i, f"cardinality {texts[i]!r} not permitted on {what}")

    def elements(i: int, stop: str) -> tuple[tuple[Element, ...], int]:
        """The elements from token `i` to the `stop` mark, and its index."""
        out: list[Element] = []
        while texts[i] != stop or kinds[i] != "punct":
            kind, text = kinds[i], texts[i]
            if kind == "ident":
                if texts[i + 1] == ":" and kinds[i + 1] == "punct":
                    if kinds[i + 2] != "ident":
                        raise fail(i + 2, "expected nonterminal after ':'", got=True)
                    el, i = NonterminalRef(text, texts[i + 2]), i + 3
                else:
                    el, i = NonterminalRef(None, text), i + 1
                if texts[i] in _CARDINALITY and kinds[i] == "punct":
                    el, i = Group((el,), _CARDINALITY[texts[i]]), i + 1
            elif kind == "string":
                el, i = Terminal(text), i + 1
                if texts[i] in _CARDINALITY:
                    reject_cardinality(i, "a terminal")
            elif text == "<<?>>":
                el, i = StereotypeSlot(), i + 1
                if texts[i] in _CARDINALITY:
                    reject_cardinality(i, "a stereotype slot")
            elif text == "(":
                el, i = group_or_synonyms(i)
            elif kind == "eof":
                raise fail(i, f"expected {stop!r}", got=True)
            elif text == "|":
                raise fail(i, "alternation is only permitted among terminals")
            else:
                raise fail(i, f"unexpected {text!r} in production body")
            out.append(el)
        return tuple(out), i

    def group_or_synonyms(opened: int) -> tuple[Element, int]:
        """The group or synonym group opened at token `opened`, and the
        index after it."""
        # A synonym group opens with a string and '|' (a string is never
        # the last token).
        i = opened + 1
        if kinds[i] != "string" or texts[i + 1] != "|" or kinds[i + 1] != "punct":
            try:
                inner, i = elements(i, ")")
            except RecursionError:
                raise _TooDeep(opened) from None
            if not inner:
                raise fail(opened, "empty group")
            if texts[i + 1] in _CARDINALITY and kinds[i + 1] == "punct":
                return Group(inner, _CARDINALITY[texts[i + 1]]), i + 2
            return Group(inner, "once"), i + 1
        spellings = [texts[i]]
        while texts[i + 1] == "|" and kinds[i + 1] == "punct":
            i += 2
            if kinds[i] != "string":
                raise fail(i, "expected 'string'", got=True)
            spellings.append(texts[i])
        mark(i + 1, ")")
        if texts[i + 2] in _CARDINALITY:
            reject_cardinality(i + 2, "a synonym group")
        if "" in spellings:
            raise fail(opened, "synonym alternatives must be nonempty")
        if len(set(spellings)) != len(spellings):
            raise fail(opened, "synonym alternatives must be pairwise distinct")
        return TerminalSynonyms(spellings[0], tuple(spellings[1:])), i + 2

    ident(0, "grammar")
    name = ident(1)
    mark(2, "{")
    productions: list[Production] = []
    i = 3
    while texts[i] != "}" or kinds[i] != "punct":
        sugar_for = None
        if texts[i] == "sugar" and kinds[i] == "ident":
            production = ident(i + 1)
            ident(i + 2, "for")
            sugar_for, i = ident(i + 3), i + 3
        else:
            production = ident(i)
        mark(i + 1, "=")
        body, i = elements(i + 2, ";")
        productions.append(Production(production, body, sugar_for))
        i += 1
    if kinds[i + 1] != "eof":
        raise fail(i + 1, f"trailing input {texts[i + 1]!r}")
    if not productions:
        raise GrammarError(f"grammar {name} has no productions (start production undefined)")
    return GrammarDef(name, tuple(productions), productions[0].name)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _validate(g: GrammarDef) -> GrammarDef:
    """`g` with its model vocabulary, its sugar alternatives and its schema,
    once `g` passes every check.  One walk of each production checks its
    references and collects its spellings, the references it cannot match
    without and whether it must consume a token, and derives its fields.
    A field error is held until every other check has passed, and then the
    first one is raised."""
    # Deferred: schema imports this module.
    from .schema import STEREOTYPE_FIELD, AstSchema, SchemaDatatype, SchemaField

    # Each production's alternatives, filled in as sugar productions pass.
    defined: dict[str, list[str]] = {}
    for p in g.productions:
        if p.name in defined:
            raise GrammarError(f"duplicate production name {p.name}")
        if p.name == IDENT_TOKEN:
            raise GrammarError(f"production may not be named {IDENT_TOKEN}")
        defined[p.name] = [p.name]

    spellings: set[str] = set()
    slots = False
    faults: list[GrammarError] = []
    # Per production: the targets of the references outside optional and
    # starred groups, and whether a terminal or IDENT is there too.
    needs: dict[str, list[str]] = {}
    consuming: set[str] = set()
    datatypes: list[SchemaDatatype] = []

    def visit(elements: tuple[Element, ...], lo: float, hi: float) -> None:
        """Walk `elements`, each matched between `lo` and `hi` times, into
        `fields` (label -> [target, least and most times matched]) and
        `required` of production `name`."""
        nonlocal slots
        for el in elements:
            t = type(el)
            if t is Terminal:
                spellings.add(el.text)
                if lo:
                    consuming.add(name)
            elif t is NonterminalRef:
                target, label = el.target, el.label or el.target
                if target == IDENT_TOKEN:
                    if el.label is None:
                        raise GrammarError(f"reference to {IDENT_TOKEN} must carry a label")
                    if lo:
                        consuming.add(name)
                elif target not in defined:
                    raise GrammarError(f"unresolved nonterminal {target}")
                elif lo:
                    required.append(target)
                field = fields.get(label)
                if field is None:
                    fields[label] = [target, lo, hi]
                elif field[0] != target:
                    faults.append(
                        GrammarError(f"field {label} of {name} is used with conflicting types")
                    )
                else:
                    field[1] += lo
                    field[2] += hi
            elif t is Group:
                card = el.cardinality
                visit(el.elements, lo if card == "once" else 0, hi if card != "star" else inf)
            elif t is StereotypeSlot:
                slots = True
                if lo != 1 or hi != 1 or STEREOTYPE_FIELD in fields:
                    faults.append(GrammarError(
                        f"production {name}: a stereotype slot must appear "
                        "exactly once, outside groups"
                    ))
                fields[STEREOTYPE_FIELD] = [_SLOT, 1, 1]
            else:
                spellings.update(el.all_spellings())  # a synonym group
                if lo:
                    consuming.add(name)

    for p in g.productions:
        name, fields, required = p.name, {}, []
        visit(p.elements, 1, 1)
        needs[name] = required
        datatypes.append(SchemaDatatype(name, tuple([
            SchemaField(label, IDENT_TOKEN, "set") if target == _SLOT
            else SchemaField(label, target, "list" if hi > 1 else "option" if lo == 0 else "")
            for label, (target, lo, hi) in fields.items()
        ]), p.sugar_for))
        if p.sugar_for is not None:
            if p.sugar_for not in defined:
                raise GrammarError(
                    f"sugar production {p.name} expands an undefined production {p.sugar_for}"
                )
            if g.production(p.sugar_for).sugar_for is not None:
                raise GrammarError(
                    f"sugar production {p.name} may not expand another sugar production"
                )
            defined[p.sugar_for].append(p.name)

    keywords = frozenset(filter(IDENT.fullmatch, spellings))
    punct = spellings - keywords
    if slots:
        punct |= {"<<", ">>"}
    pattern = token_pattern(punct)
    _reject_unscannable_terminals(spellings, pattern)
    alternatives = {name: tuple(names) for name, names in defined.items()}
    _reject_bad_recursion(g, alternatives, needs, consuming)
    if faults:
        raise faults[0]
    schema = AstSchema(g.name, tuple(datatypes))
    return GrammarDef(*g[:3], schema, pattern, keywords, alternatives)


def _reject_unscannable_terminals(spellings: set[str], pattern: TokenPattern) -> None:
    """Reject a terminal or synonym spelling that no model can match: with
    the model `pattern` it must scan as exactly one token of the same text.
    The spellings are scanned together, one per line; no token spans a line.
    They all pass when the tokens found are the spellings and none is a
    comment.  Otherwise the one reported is the one a scan in sorted order
    stops at: the first with a character no token starts with, or else the
    first line that does not scan as itself (a token is never empty, blank
    or a comment, so the first token that differs from its spelling, or is
    missing, belongs to that line)."""
    found = list(spellings)
    if pattern.regex.findall("\n".join(found)) == found and not any(
        s[:2] == "//" for s in found
    ):
        return
    ordered = sorted(spellings)
    try:
        texts = scan("\n".join(ordered), pattern, GrammarError).texts[:-1]
    except GrammarError as exc:
        bad = ordered[exc.line - 1]
    else:
        bad = next(s for s, text in zip_longest(ordered, texts) if s != text)
    raise GrammarError(f"terminal {bad!r} does not scan as one model token")


def _reject_bad_recursion(
    g: GrammarDef,
    alternatives: dict[str, tuple[str, ...]],
    needs: dict[str, list[str]],
    consuming: set[str],
) -> None:
    """Reject a production that can reach itself before consuming a token,
    and productions that derive no finite model.

    A reference to X parses X or one of its sugar productions.  A production
    can match nothing when it is not `consuming` (it needs no terminal or
    IDENT outside optional and starred groups) and each reference it
    `needs` has an alternative that can.  It derives a finite model when
    each reference it needs has an alternative that does; a sugar
    alternative can thus be the base case of its production.
    """

    def least(names: Iterable[str]) -> set[str]:
        """The least set of `names` each of which needs only references
        with an alternative in the set."""
        found = {p for p in names if not needs[p]}
        rest = [p for p in names if needs[p]]
        while grown := [
            p for p in rest if all(not found.isdisjoint(alternatives[t]) for t in needs[p])
        ]:
            found.update(grown)
            rest = [p for p in rest if p not in found]
        return found

    nullable = least([p for p in needs if p not in consuming])

    def reached(elements: tuple[Element, ...]) -> tuple[list[str], bool]:
        """The productions reached before a token, and whether all of
        `elements` can match nothing."""
        out: list[str] = []
        for el in elements:
            if type(el) is Group:
                inner, empty = reached(el.elements)
                out += inner
                empty = empty or el.cardinality != "once"
            elif type(el) is NonterminalRef and el.target != IDENT_TOKEN:
                out += alternatives[el.target]
                empty = not nullable.isdisjoint(alternatives[el.target])
            else:
                empty = type(el) is StereotypeSlot
            if not empty:
                return out, False
        return out, True

    edges = {p.name: reached(p.elements)[0] for p in g.productions}
    finished: set[str] = set()
    for root in edges:
        path, pending = [root], [iter(edges[root])]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                finished.add(path.pop())
                pending.pop()
            elif nxt in path:
                cycle = " -> ".join(path[path.index(nxt):] + [nxt])
                raise GrammarError(f"left recursion: {cycle}")
            elif nxt not in finished:
                path.append(nxt)
                pending.append(iter(edges[nxt]))

    productive = least(needs)
    if barren := [p for p in needs if p not in productive]:
        raise GrammarError(f"no finite model derives from {', '.join(barren)}")


def parse_grammar(source: str) -> GrammarDef:
    """Parse the text of a .mclang file into a validated GrammarDef, which
    carries its derived schema and model vocabulary."""
    tokens = scan(source, _pattern(), GrammarError)
    try:
        g = _read(tokens)
    except _TooDeep as exc:
        # The reader recurses twice per group level, the walks of `_validate`
        # once: past the interpreter's recursion limit the grammar is
        # refused, not the process.
        raise tokens.fail(exc.args[0], "grammar nested too deeply to parse") from None
    return _validate(g)
