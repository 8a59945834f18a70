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
consuming a token (left recursion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

IDENT_TOKEN = "IDENT"

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class GrammarError(Exception):
    """Raised for malformed grammar definitions."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            super().__init__(f"line {line}, col {col}: {message}")
        else:
            super().__init__(message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Grammar model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Terminal:
    text: str


@dataclass(frozen=True)
class TerminalSynonyms:
    """A terminal with presentation-only alternative spellings."""

    canonical: str
    alternatives: tuple[str, ...]

    def all_spellings(self) -> tuple[str, ...]:
        return (self.canonical, *self.alternatives)


@dataclass(frozen=True)
class NonterminalRef:
    label: str | None
    target: str

    @property
    def field_label(self) -> str:
        return self.label if self.label is not None else self.target


@dataclass(frozen=True)
class Group:
    elements: tuple["Element", ...]
    cardinality: str  # "once" | "optional" | "star"


@dataclass(frozen=True)
class StereotypeSlot:
    pass


Element = Union[Terminal, TerminalSynonyms, NonterminalRef, Group, StereotypeSlot]


@dataclass(frozen=True)
class Production:
    name: str
    elements: tuple[Element, ...]
    sugar_for: str | None = None


@dataclass(frozen=True)
class GrammarDef:
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

    def terminal_texts(self) -> frozenset[str]:
        out: set[str] = set()

        def walk(elements: tuple[Element, ...]) -> None:
            for el in elements:
                if isinstance(el, Terminal):
                    out.add(el.text)
                elif isinstance(el, TerminalSynonyms):
                    out.update(el.all_spellings())
                elif isinstance(el, Group):
                    walk(el.elements)

        for p in self.productions:
            walk(p.elements)
        return frozenset(out)

    def has_stereotype_slots(self) -> bool:
        def walk(elements: tuple[Element, ...]) -> bool:
            return any(
                isinstance(el, StereotypeSlot)
                or (isinstance(el, Group) and walk(el.elements))
                for el in elements
            )

        return any(walk(p.elements) for p in self.productions)


# ---------------------------------------------------------------------------
# Tokenizer for the .mclang format itself
# ---------------------------------------------------------------------------

_PUNCT = ("<<?>>", "{", "}", "(", ")", "*", "?", "|", ":", ";", "=")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "ident" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_col = col
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                raise GrammarError("unterminated terminal string", line, start_col)
            toks.append(_Tok("string", source[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                toks.append(_Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            m = _IDENT_RE.match(source, i)
            if m:
                toks.append(_Tok("ident", m.group(), line, col))
                col += len(m.group())
                i = m.end()
            else:
                raise GrammarError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _GrammarParser:
    def __init__(self, tokens: list[_Tok]):
        self.toks = tokens
        self.pos = 0

    def _peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def _advance(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self._peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise GrammarError(
                f"expected {want!r}, got {tok.text!r}" if tok.text else f"expected {want!r}, got end of input",
                tok.line,
                tok.col,
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> _Tok:
        tok = self._peek()
        if tok.kind != "ident" or tok.text != word:
            raise GrammarError(f"expected {word!r}, got {tok.text!r}", tok.line, tok.col)
        return self._advance()

    def parse(self) -> GrammarDef:
        self._expect_keyword("grammar")
        name = self._expect("ident").text
        self._expect("punct", "{")
        productions: list[Production] = []
        while not (self._peek().kind == "punct" and self._peek().text == "}"):
            productions.append(self._production())
        self._expect("punct", "}")
        tok = self._peek()
        if tok.kind != "eof":
            raise GrammarError(f"trailing input {tok.text!r}", tok.line, tok.col)
        if not productions:
            raise GrammarError(f"grammar {name} has no productions (start production undefined)")
        return GrammarDef(name, tuple(productions), productions[0].name)

    def _production(self) -> Production:
        sugar_for = None
        if self._peek().kind == "ident" and self._peek().text == "sugar":
            self._advance()
            name_tok = self._expect("ident")
            self._expect_keyword("for")
            sugar_for = self._expect("ident").text
        else:
            name_tok = self._expect("ident")
        self._expect("punct", "=")
        elements = self._elements(stop=";")
        self._expect("punct", ";")
        return Production(name_tok.text, tuple(elements), sugar_for)

    def _elements(self, stop: str) -> list[Element]:
        out: list[Element] = []
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.text == stop:
                return out
            if tok.kind == "eof":
                raise GrammarError(f"expected {stop!r}, got end of input", tok.line, tok.col)
            out.append(self._element())

    def _element(self) -> Element:
        tok = self._peek()
        if tok.kind == "string":
            self._advance()
            self._reject_cardinality("a terminal")
            return Terminal(tok.text)
        if tok.kind == "punct" and tok.text == "<<?>>":
            self._advance()
            self._reject_cardinality("a stereotype slot")
            return StereotypeSlot()
        if tok.kind == "punct" and tok.text == "(":
            return self._group_or_synonyms()
        if tok.kind == "ident":
            ref = self._reference()
            card = self._cardinality()
            if card != "once":
                return Group((ref,), card)
            return ref
        if tok.kind == "punct" and tok.text == "|":
            raise GrammarError(
                "alternation is only permitted among terminals", tok.line, tok.col
            )
        raise GrammarError(f"unexpected {tok.text!r} in production body", tok.line, tok.col)

    def _reference(self) -> NonterminalRef:
        first = self._expect("ident")
        if self._peek().kind == "punct" and self._peek().text == ":":
            self._advance()
            target_tok = self._peek()
            if target_tok.kind != "ident":
                raise GrammarError(
                    f"expected nonterminal after ':', got {target_tok.text!r}",
                    target_tok.line,
                    target_tok.col,
                )
            self._advance()
            return NonterminalRef(first.text, target_tok.text)
        return NonterminalRef(None, first.text)

    def _group_or_synonyms(self) -> Element:
        open_tok = self._expect("punct", "(")
        # Synonym groups look like ("a" | "b" | ...): detect via string + '|'.
        if (
            self._peek().kind == "string"
            and self._peek(1).kind == "punct"
            and self._peek(1).text == "|"
        ):
            spellings = [self._expect("string").text]
            while self._peek().kind == "punct" and self._peek().text == "|":
                self._advance()
                spellings.append(self._expect("string").text)
            self._expect("punct", ")")
            self._reject_cardinality("a synonym group")
            syn = TerminalSynonyms(spellings[0], tuple(spellings[1:]))
            self._check_synonyms(syn, open_tok)
            return syn
        elements = self._elements(stop=")")
        self._expect("punct", ")")
        if not elements:
            raise GrammarError("empty group", open_tok.line, open_tok.col)
        return Group(tuple(elements), self._cardinality())

    def _check_synonyms(self, syn: TerminalSynonyms, at: _Tok) -> None:
        spellings = syn.all_spellings()
        if any(not s for s in spellings):
            raise GrammarError("synonym alternatives must be nonempty", at.line, at.col)
        if len(set(spellings)) != len(spellings):
            raise GrammarError("synonym alternatives must be pairwise distinct", at.line, at.col)

    def _cardinality(self) -> str:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == "*":
            self._advance()
            return "star"
        if tok.kind == "punct" and tok.text == "?":
            self._advance()
            return "optional"
        return "once"

    def _reject_cardinality(self, what: str) -> None:
        tok = self._peek()
        if tok.kind == "punct" and tok.text in ("*", "?"):
            raise GrammarError(
                f"cardinality {tok.text!r} not permitted on {what}", tok.line, tok.col
            )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _validate(g: GrammarDef) -> None:
    seen: set[str] = set()
    for p in g.productions:
        if p.name in seen:
            raise GrammarError(f"duplicate production name {p.name}")
        if p.name == IDENT_TOKEN:
            raise GrammarError(f"production may not be named {IDENT_TOKEN}")
        seen.add(p.name)

    defined = {p.name for p in g.productions}

    def check_refs(elements: tuple[Element, ...]) -> None:
        for el in elements:
            if isinstance(el, NonterminalRef):
                if el.target == IDENT_TOKEN:
                    if el.label is None:
                        raise GrammarError(
                            f"reference to {IDENT_TOKEN} must carry a label"
                        )
                elif el.target not in defined:
                    raise GrammarError(f"unresolved nonterminal {el.target}")
            elif isinstance(el, Group):
                check_refs(el.elements)

    for p in g.productions:
        check_refs(p.elements)
        if p.sugar_for is not None:
            if p.sugar_for not in defined:
                raise GrammarError(
                    f"sugar production {p.name} expands an undefined production {p.sugar_for}"
                )
            if g.production(p.sugar_for).sugar_for is not None:
                raise GrammarError(
                    f"sugar production {p.name} may not expand another sugar production"
                )

    _reject_left_recursion(g)

    # Field labels must be consistent and unique after schema derivation.
    from .schema import derive_schema  # deferred: schema imports this module

    derive_schema(g)


def _reject_left_recursion(g: GrammarDef) -> None:
    """Reject a production that can reach itself before consuming a token.

    A reference to X parses X or one of its sugar productions.  An element
    can match nothing when it is a stereotype slot, an optional or starred
    group, or a group or reference whose contents can.
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


def parse_grammar(source: str) -> GrammarDef:
    """Parse the text of a .mclang file into a validated GrammarDef."""
    g = _GrammarParser(_tokenize(source)).parse()
    _validate(g)
    return g
