"""Parsing concrete model texts against a grammar into generic AST nodes.

The parser interprets the grammar directly: ordered choice, greedy matching,
with backtracking restricted to optional and star groups (a star iteration
commits only if it matches fully).  Wherever a production is referenced, its
sugar alternatives are tried after it, in declaration order.  Terminal
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
from .schema import (
    AstNode,
    AstSchema,
    ListOf,
    OptionOf,
    SourcePos,
    StereotypeSet,
    derive_schema,
)


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


class _ModelParser:
    def __init__(self, grammar: GrammarDef, schema: AstSchema, tokens: list[Token]):
        self.grammar = grammar
        self.schema = schema
        self.toks = tokens
        self.pos = 0
        self.farthest = 0
        self.expected_at_farthest: set[str] = set()

    # -- failure bookkeeping -------------------------------------------------

    def _fail(self, expected: str) -> None:
        if self.pos > self.farthest:
            self.farthest = self.pos
            self.expected_at_farthest = {expected}
        elif self.pos == self.farthest:
            self.expected_at_farthest.add(expected)
        raise _Backtrack()

    def _error(self) -> ModelParseError:
        tok = self.toks[self.farthest]
        expected = frozenset(self.expected_at_farthest)
        got = repr(tok.text) if tok.kind != "eof" else "end of input"
        wanted = ", ".join(sorted(expected))
        return ModelParseError(f"expected {wanted}, got {got}", tok.line, tok.col, expected)

    # -- token access ----------------------------------------------------------

    def _peek(self) -> Token:
        return self.toks[self.pos]

    def _take_terminal(self, text: str) -> None:
        tok = self._peek()
        if tok.kind in ("keyword", "punct") and tok.text == text:
            self.pos += 1
        else:
            self._fail(repr(text))

    def _take_ident(self) -> str:
        tok = self._peek()
        if tok.kind != "ident":
            self._fail(IDENT_TOKEN)
        self.pos += 1
        return tok.text

    # -- parsing -----------------------------------------------------------

    def parse(self) -> AstNode:
        try:
            node = self._production(self.grammar.production(self.grammar.start_production))
        except _Backtrack:
            raise self._error() from None
        tok = self._peek()
        if tok.kind != "eof":
            if self.farthest > self.pos:
                raise self._error()
            raise ModelParseError(
                f"trailing input starting at {tok.text!r}", tok.line, tok.col
            )
        return node

    def _production(self, prod: Production) -> AstNode:
        start = self._peek()
        acc: dict[str, list[object]] = {}
        stereotypes: list[str] = []
        self._sequence(prod.elements, acc, stereotypes)
        return self._build(prod, acc, stereotypes, start)

    def _build(
        self,
        prod: Production,
        acc: dict[str, list[object]],
        stereotypes: list[str],
        start: Token,
    ) -> AstNode:
        fields: dict[str, object] = {}
        for f in self.schema.datatype(prod.name).fields:
            values = acc.get(f.label, [])
            if isinstance(f.type, StereotypeSet):
                fields[f.label] = frozenset(stereotypes)
            elif isinstance(f.type, ListOf):
                fields[f.label] = list(values)
            elif isinstance(f.type, OptionOf):
                fields[f.label] = values[0] if values else None
            else:
                fields[f.label] = values[0]
        return AstNode(prod.name, fields, pos=SourcePos(start.line, start.col))

    def _sequence(
        self,
        elements: tuple[Element, ...],
        acc: dict[str, list[object]],
        stereotypes: list[str],
    ) -> None:
        for el in elements:
            if isinstance(el, Terminal):
                self._take_terminal(el.text)
            elif isinstance(el, TerminalSynonyms):
                self._synonyms(el)
            elif isinstance(el, NonterminalRef):
                acc.setdefault(el.field_label, []).append(self._reference(el))
            elif isinstance(el, StereotypeSlot):
                self._stereotypes(stereotypes)
            elif isinstance(el, Group):
                self._group(el, acc, stereotypes)

    def _synonyms(self, syn: TerminalSynonyms) -> None:
        tok = self._peek()
        if tok.kind in ("keyword", "punct") and tok.text in syn.all_spellings():
            self.pos += 1
            return
        if self.pos > self.farthest:
            self.farthest = self.pos
            self.expected_at_farthest = set()
        if self.pos == self.farthest:
            self.expected_at_farthest.update(repr(s) for s in syn.all_spellings())
        raise _Backtrack()

    def _reference(self, ref: NonterminalRef) -> object:
        if ref.target == IDENT_TOKEN:
            return self._take_ident()
        candidates = (
            self.grammar.production(ref.target),
            *self.grammar.sugar_alternatives(ref.target),
        )
        for prod in candidates[:-1]:
            mark = self.pos
            try:
                return self._production(prod)
            except _Backtrack:
                self.pos = mark
        return self._production(candidates[-1])

    def _stereotypes(self, stereotypes: list[str]) -> None:
        while self._peek().kind == "punct" and self._peek().text == "<<":
            self.pos += 1
            stereotypes.append(self._take_ident())
            self._take_terminal(">>")

    def _group(
        self,
        group: Group,
        acc: dict[str, list[object]],
        stereotypes: list[str],
    ) -> None:
        if group.cardinality == "once":
            self._sequence(group.elements, acc, stereotypes)
            return
        while True:
            mark = self.pos
            lengths = {label: len(values) for label, values in acc.items()}
            try:
                self._sequence(group.elements, acc, stereotypes)
            except _Backtrack:
                self.pos = mark
                for label, length in lengths.items():
                    del acc[label][length:]
                for label in list(acc):
                    if label not in lengths:
                        del acc[label]
                return
            if group.cardinality == "optional" or self.pos == mark:
                return


def parse_model(grammar: GrammarDef, source: str) -> AstNode:
    """Parse a model text against a grammar; the result conforms to
    derive_schema(grammar)."""
    schema = derive_schema(grammar)
    tokens = tokenize_model(grammar, source)
    parser = _ModelParser(grammar, schema, tokens)
    try:
        return parser.parse()
    except RecursionError:
        # The parser descends once per nesting level; past the interpreter's
        # recursion limit the model is refused, not the process.
        tok = parser._peek()
        raise ModelParseError("model nested too deeply to parse", tok.line, tok.col) from None
