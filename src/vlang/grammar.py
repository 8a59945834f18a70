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

`walk` visits the elements of a production depth first, each group before
its contents; the terminal vocabulary, the stereotype-slot test and the
reference check of validation all read the grammar through it.

Grammar files and the models they define are read by the shared scanner of
vlang.lexer; only grammar files have quoted strings.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Union

from .lexer import Cursor, SourceError, Token, scan

IDENT_TOKEN = "IDENT"

_PUNCT = ("<<?>>", "{", "}", "(", ")", "*", "?", "|", ":", ";", "=")


class GrammarError(SourceError):
    """Raised for malformed grammar definitions."""


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

    def production(self, name: str) -> Production:
        for p in self.productions:
            if p.name == name:
                return p
        raise KeyError(name)

    def sugar_alternatives(self, base: str) -> tuple[Production, ...]:
        """Sugar productions accepted wherever `base` is referenced, in
        declaration order."""
        return tuple(p for p in self.productions if p.sugar_for == base)

    def sugar_bases(self) -> dict[str, str]:
        return {p.name: p.sugar_for for p in self.productions if p.sugar_for}

    def elements(self) -> Iterator[Element]:
        """Every element of every production, in `walk` order."""
        return (el for p in self.productions for el in walk(p.elements))

    def terminal_texts(self) -> frozenset[str]:
        out: set[str] = set()
        for el in self.elements():
            if isinstance(el, Terminal):
                out.add(el.text)
            elif isinstance(el, TerminalSynonyms):
                out.update(el.all_spellings())
        return frozenset(out)

    def has_stereotype_slots(self) -> bool:
        return any(isinstance(el, StereotypeSlot) for el in self.elements())


def walk(elements: tuple[Element, ...]) -> Iterator[Element]:
    """Each of `elements` in order, a group followed by its contents."""
    for el in elements:
        yield el
        if isinstance(el, Group):
            yield from walk(el.elements)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _GrammarParser(Cursor):
    error = GrammarError

    def parse(self) -> GrammarDef:
        self._take("ident", "grammar")
        name = self._take("ident").text
        self._take("punct", "{")
        productions: list[Production] = []
        while not self._at("punct", "}"):
            productions.append(self._production())
        self._take("punct", "}")
        if self._peek().kind != "eof":
            raise self._err(f"trailing input {self._peek().text!r}")
        if not productions:
            raise GrammarError(f"grammar {name} has no productions (start production undefined)")
        return GrammarDef(name, tuple(productions), productions[0].name)

    def _production(self) -> Production:
        sugar_for = None
        if self._at("ident", "sugar"):
            self._advance()
            name_tok = self._take("ident")
            self._take("ident", "for")
            sugar_for = self._take("ident").text
        else:
            name_tok = self._take("ident")
        self._take("punct", "=")
        elements = self._elements(stop=";")
        self._take("punct", ";")
        return Production(name_tok.text, tuple(elements), sugar_for)

    def _elements(self, stop: str) -> list[Element]:
        out: list[Element] = []
        while not self._at("punct", stop):
            if self._peek().kind == "eof":
                raise self._err(f"expected {stop!r}, got {self._got()}")
            out.append(self._element())
        return out

    def _element(self) -> Element:
        tok = self._peek()
        if tok.kind == "string":
            self._advance()
            self._reject_cardinality("a terminal")
            return Terminal(tok.text)
        if self._at("punct", "<<?>>"):
            self._advance()
            self._reject_cardinality("a stereotype slot")
            return StereotypeSlot()
        if self._at("punct", "("):
            return self._group_or_synonyms()
        if tok.kind == "ident":
            ref = self._reference()
            card = self._cardinality()
            if card != "once":
                return Group((ref,), card)
            return ref
        if self._at("punct", "|"):
            raise self._err("alternation is only permitted among terminals")
        raise self._err(f"unexpected {tok.text!r} in production body")

    def _reference(self) -> NonterminalRef:
        first = self._take("ident")
        if self._at("punct", ":"):
            self._advance()
            if self._peek().kind != "ident":
                raise self._err(f"expected nonterminal after ':', got {self._got()}")
            return NonterminalRef(first.text, self._advance().text)
        return NonterminalRef(None, first.text)

    def _group_or_synonyms(self) -> Element:
        open_tok = self._take("punct", "(")
        # Synonym groups look like ("a" | "b" | ...): detect via string + '|'.
        if (
            self._peek().kind == "string"
            and self._peek(1).kind == "punct"
            and self._peek(1).text == "|"
        ):
            spellings = [self._take("string").text]
            while self._at("punct", "|"):
                self._advance()
                spellings.append(self._take("string").text)
            self._take("punct", ")")
            self._reject_cardinality("a synonym group")
            syn = TerminalSynonyms(spellings[0], tuple(spellings[1:]))
            self._check_synonyms(syn, open_tok)
            return syn
        elements = self._elements(stop=")")
        self._take("punct", ")")
        if not elements:
            raise self._err("empty group", open_tok)
        return Group(tuple(elements), self._cardinality())

    def _check_synonyms(self, syn: TerminalSynonyms, at: Token) -> None:
        spellings = syn.all_spellings()
        if any(not s for s in spellings):
            raise self._err("synonym alternatives must be nonempty", at)
        if len(set(spellings)) != len(spellings):
            raise self._err("synonym alternatives must be pairwise distinct", at)

    def _cardinality(self) -> str:
        if self._at("punct", "*"):
            self._advance()
            return "star"
        if self._at("punct", "?"):
            self._advance()
            return "optional"
        return "once"

    def _reject_cardinality(self, what: str) -> None:
        tok = self._peek()
        if tok.kind == "punct" and tok.text in ("*", "?"):
            raise self._err(f"cardinality {tok.text!r} not permitted on {what}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _validate(g: GrammarDef) -> None:
    defined: set[str] = set()
    for p in g.productions:
        if p.name in defined:
            raise GrammarError(f"duplicate production name {p.name}")
        if p.name == IDENT_TOKEN:
            raise GrammarError(f"production may not be named {IDENT_TOKEN}")
        defined.add(p.name)

    for p in g.productions:
        for el in walk(p.elements):
            if isinstance(el, NonterminalRef) and el.target == IDENT_TOKEN:
                if el.label is None:
                    raise GrammarError(f"reference to {IDENT_TOKEN} must carry a label")
            elif isinstance(el, NonterminalRef) and el.target not in defined:
                raise GrammarError(f"unresolved nonterminal {el.target}")
        if p.sugar_for is not None:
            if p.sugar_for not in defined:
                raise GrammarError(
                    f"sugar production {p.name} expands an undefined production {p.sugar_for}"
                )
            if g.production(p.sugar_for).sugar_for is not None:
                raise GrammarError(
                    f"sugar production {p.name} may not expand another sugar production"
                )

    _reject_unscannable_terminals(g)
    _reject_bad_recursion(g)

    # Field labels must be consistent and unique after schema derivation.
    from .schema import derive_schema  # deferred: schema imports this module

    derive_schema(g)


def _reject_unscannable_terminals(g: GrammarDef) -> None:
    """Reject a terminal or synonym spelling that no model can match: in the
    model vocabulary of `g` it must scan as exactly one token of the same
    text.  The spellings are scanned together, one per line."""
    from .modelparse import TokenizeError, tokenize_model  # deferred: it imports this module

    spellings = sorted(g.terminal_texts())
    try:
        tokens = tokenize_model(g, "\n".join(spellings))
    except TokenizeError as exc:
        bad = spellings[exc.line - 1]
    else:
        scanned: list[list[str]] = [[] for _ in spellings]
        for tok in tokens[:-1]:
            scanned[tok.line - 1].append(tok.text)
        bad = next((s for s, texts in zip(spellings, scanned) if texts != [s]), None)
    if bad is not None:
        raise GrammarError(f"terminal {bad!r} does not scan as one model token")


def _reject_bad_recursion(g: GrammarDef) -> None:
    """Reject a production that can reach itself before consuming a token,
    and productions that derive no finite model.

    A reference to X parses X or one of its sugar productions.  An element
    can match nothing when it is a stereotype slot, an optional or starred
    group, or a group or reference whose contents can.  An element derives
    a finite model unless it is a reference none of whose alternatives
    does, or a group that must match and holds such an element; a sugar
    alternative can thus be the base case of its production.
    """
    alternatives = {
        p.name: [p.name, *(s.name for s in g.sugar_alternatives(p.name))] for p in g.productions
    }
    nullable: set[str] = set()

    def scan(elements: tuple[Element, ...]) -> tuple[list[str], bool]:
        """The productions reached before a token, and whether all of
        `elements` can match nothing."""
        reached: list[str] = []
        for el in elements:
            if isinstance(el, Group):
                inner, empty = scan(el.elements)
                reached += inner
                empty = empty or el.cardinality != "once"
            elif isinstance(el, NonterminalRef) and el.target != IDENT_TOKEN:
                reached += alternatives[el.target]
                empty = not nullable.isdisjoint(alternatives[el.target])
            else:
                empty = isinstance(el, StereotypeSlot)
            if not empty:
                return reached, False
        return reached, True

    while (grown := {p.name for p in g.productions if scan(p.elements)[1]}) != nullable:
        nullable = grown
    edges = {p.name: scan(p.elements)[0] for p in g.productions}
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

    productive: set[str] = set()

    def finite(el: Element) -> bool:
        if isinstance(el, Group):
            return el.cardinality != "once" or all(finite(e) for e in el.elements)
        if isinstance(el, NonterminalRef) and el.target != IDENT_TOKEN:
            return not productive.isdisjoint(alternatives[el.target])
        return True

    while (grown := {p.name for p in g.productions if all(map(finite, p.elements))}) != productive:
        productive = grown
    if barren := [p.name for p in g.productions if p.name not in productive]:
        raise GrammarError(f"no finite model derives from {', '.join(barren)}")


def parse_grammar(source: str) -> GrammarDef:
    """Parse the text of a .mclang file into a validated GrammarDef."""
    g = _GrammarParser(scan(source, _PUNCT, GrammarError, strings=True)).parse()
    _validate(g)
    return g
