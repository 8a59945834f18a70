"""Parsing concrete model texts against a grammar into generic AST nodes.

The parser interprets the grammar directly: ordered choice and greedy
matching, with backtracking in two places.  An optional or starred group is
tried one iteration at a time, and an iteration commits only if it matches
fully.  A reference tries its production and then the production's sugar
alternatives, in declaration order, and takes the first that matches.  Each
node and each iteration collects its fields into a dict of its own, which
joins the enclosing one only when it matches, so a failed iteration or
alternative leaves no fields behind.  An error reports the farthest token
any alternative reached and every terminal expected there.  Terminal
synonyms all produce the canonical token, so the spelling chosen in the
model never shows in the AST.

Tokenization: the shared scanner of vlang.lexer, with the vocabulary taken
from the grammar.  Every word-like terminal is a reserved keyword (an IDENT
may not equal one), every other terminal is punctuation, and stereotype
slots add ``<<`` and ``>>``.  Grammar validation ensures that each terminal
scans as one token of this vocabulary.
"""

from __future__ import annotations

from .grammar import (
    IDENT_TOKEN,
    Element,
    GrammarDef,
    Group,
    NonterminalRef,
    Production,
    StereotypeSlot,
    Terminal,
    TerminalSynonyms,
)
from .lexer import IDENT, SourceError, Token, scan
from .schema import STEREOTYPE_FIELD, AstNode, SourcePos, derive_schema


class TokenizeError(SourceError):
    """A character that starts no token of the model's vocabulary."""


class ModelParseError(SourceError):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        super().__init__(message, line, col)
        self.expected = expected


def tokenize_model(grammar: GrammarDef, source: str) -> list[Token]:
    """Scan a model: word-like terminals of `grammar` are its keywords and
    every other terminal is punctuation, with ``<<`` and ``>>`` added when
    the grammar has stereotype slots."""
    terminals = grammar.terminal_texts()
    keywords = {t for t in terminals if IDENT.fullmatch(t)}
    punct = terminals - keywords | ({"<<", ">>"} if grammar.has_stereotype_slots() else set())
    return scan(source, punct, TokenizeError, keywords=keywords)


class _Backtrack(Exception):
    """Internal: current alternative failed; recovery decided by the caller."""


_Fields = dict[str, list[object]]


class _ModelParser:
    def __init__(self, grammar: GrammarDef, source: str):
        # By production name: the alternatives a reference tries (the
        # production, then its sugar productions) and the node's fields.
        self.alternatives = {
            p.name: (p, *grammar.sugar_alternatives(p.name)) for p in grammar.productions
        }
        self.fields = {dt.name: dt.fields for dt in derive_schema(grammar).datatypes}
        self.start = self.alternatives[grammar.start_production][0]
        self.toks = tokenize_model(grammar, source)
        self.pos = 0
        self.farthest = 0
        self.expected_at_farthest: set[str] = set()

    # -- token access and failure bookkeeping --------------------------------

    def _fail(self, *expected: str) -> None:
        if self.pos > self.farthest:
            self.farthest = self.pos
            self.expected_at_farthest = set(expected)
        elif self.pos == self.farthest:
            self.expected_at_farthest.update(expected)
        raise _Backtrack()

    def _peek(self) -> Token:
        return self.toks[self.pos]

    def _take_terminal(self, *spellings: str) -> None:
        tok = self._peek()
        if tok.kind in ("keyword", "punct") and tok.text in spellings:
            self.pos += 1
        else:
            self._fail(*map(repr, spellings))

    def _take_ident(self) -> str:
        tok = self._peek()
        if tok.kind != "ident":
            self._fail(IDENT_TOKEN)
        self.pos += 1
        return tok.text

    # -- parsing -----------------------------------------------------------

    def parse(self) -> AstNode:
        try:
            node = self._node(self.start)
        except _Backtrack:
            node = None
        # A failure farther than the parse reached is the error, not the rest.
        if node is not None and self.farthest <= self.pos:
            tok = self._peek()
            if tok.kind == "eof":
                return node
            raise ModelParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
        tok = self.toks[self.farthest]
        expected = frozenset(self.expected_at_farthest)
        got = repr(tok.text) if tok.kind != "eof" else "end of input"
        wanted = ", ".join(sorted(expected))
        raise ModelParseError(f"expected {wanted}, got {got}", tok.line, tok.col, expected)

    def _node(self, prod: Production) -> AstNode:
        start = self._peek()
        acc: _Fields = {}
        self._sequence(prod.elements, acc)
        fields: dict[str, object] = {}
        for f in self.fields[prod.name]:
            values = acc.get(f.label, [])
            if f.card == "set":
                fields[f.label] = frozenset(values)
            elif f.card == "list":
                fields[f.label] = values
            elif f.card == "option":
                fields[f.label] = values[0] if values else None
            else:
                fields[f.label] = values[0]
        return AstNode(prod.name, fields, pos=SourcePos(start.line, start.col))

    def _sequence(self, elements: tuple[Element, ...], acc: _Fields) -> None:
        for el in elements:
            if isinstance(el, Terminal):
                self._take_terminal(el.text)
            elif isinstance(el, TerminalSynonyms):
                self._take_terminal(*el.all_spellings())
            elif isinstance(el, NonterminalRef):
                acc.setdefault(el.field_label, []).append(self._reference(el))
            elif isinstance(el, StereotypeSlot):
                self._stereotypes(acc)
            elif isinstance(el, Group):
                self._group(el, acc)

    def _reference(self, ref: NonterminalRef) -> object:
        if ref.target == IDENT_TOKEN:
            return self._take_ident()
        alternatives = self.alternatives[ref.target]
        for prod in alternatives[:-1]:
            mark = self.pos
            try:
                return self._node(prod)
            except _Backtrack:
                self.pos = mark
        return self._node(alternatives[-1])

    def _stereotypes(self, acc: _Fields) -> None:
        names = acc.setdefault(STEREOTYPE_FIELD, [])
        while self._peek().kind == "punct" and self._peek().text == "<<":
            self.pos += 1
            names.append(self._take_ident())
            self._take_terminal(">>")

    def _group(self, group: Group, acc: _Fields) -> None:
        if group.cardinality == "once":
            self._sequence(group.elements, acc)
            return
        while True:
            mark = self.pos
            matched: _Fields = {}
            try:
                self._sequence(group.elements, matched)
            except _Backtrack:
                self.pos = mark
                return
            for label, values in matched.items():
                acc.setdefault(label, []).extend(values)
            if group.cardinality == "optional" or self.pos == mark:
                return


def parse_model(grammar: GrammarDef, source: str) -> AstNode:
    """Parse a model text against a grammar; the result conforms to
    derive_schema(grammar)."""
    parser = _ModelParser(grammar, source)
    try:
        return parser.parse()
    except RecursionError:
        # The parser descends once per nesting level; past the interpreter's
        # recursion limit the model is refused, not the process.
        tok = parser._peek()
        raise ModelParseError("model nested too deeply to parse", tok.line, tok.col) from None
