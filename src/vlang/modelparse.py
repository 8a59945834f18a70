"""Parsing concrete model texts against a grammar into generic AST nodes.

Each parse first compiles the grammar into matchers, one closure per element
and one node function per production, and then runs them: ordered choice
and greedy matching, with backtracking in two places.  An optional or
starred group is tried one iteration at a time, and an iteration commits
only if it matches fully.  A reference tries its production and then the
production's sugar alternatives, in declaration order, and takes the first
that matches.  Each node collects its fields into a dict of its own, and so
does an iteration in which an element that can fail follows one that may
have written; such a dict joins the enclosing one only when it matches, so
a failed iteration or alternative leaves no fields behind.  Any other
iteration writes straight into the enclosing fields, as decided when the
grammar is compiled: an IDENT or a reference writes only when it matches,
an optional or starred group never fails, and a stereotype slot is never in
an iteration.  A repetition whose body
opens with a terminal tests the current token before it tries the body.  An
error reports the farthest token any alternative reached and every terminal
expected there.  Terminal synonyms all produce the canonical token, so the
spelling chosen in the model never shows in the AST.

Tokenization: the shared scanner of vlang.lexer, with the pattern and
keywords of the model vocabulary the grammar carries (see vlang.grammar).
Grammar validation ensures that each terminal scans as one token of it.
The matchers read the token kinds and texts by index.  A node keeps the
index of its first token, and its line and column are computed when its
position is first read; an error computes its own.  So a parse computes no
offset or position that nobody reads.
"""

from __future__ import annotations

from typing import Callable

from .grammar import (
    IDENT_TOKEN,
    Element,
    GrammarDef,
    Group,
    NonterminalRef,
    Production,
    Terminal,
    TerminalSynonyms,
    _TooDeep,
)
from .lexer import SourceError, Tokens, scan
from .schema import STEREOTYPE_FIELD, AstNode


class TokenizeError(SourceError):
    """A character that starts no token of the model's vocabulary."""


class ModelParseError(SourceError):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        super().__init__(message, line, col)
        self.expected = expected


def tokenize_model(grammar: GrammarDef, source: str) -> Tokens:
    """Scan a model in the vocabulary of `grammar` from `parse_grammar`."""
    return scan(source, grammar.model_pattern, TokenizeError, keywords=grammar.keywords)


class _Backtrack(Exception):
    """Internal: current alternative failed; recovery decided by the caller."""


_Fields = dict[str, list[object]]
# A matcher takes the index of the next token and the fields of the node or
# iteration it matches in; it returns the index after its match, or raises
# _Backtrack.
_Matcher = Callable[[int, _Fields], int]
_Node = Callable[[int], tuple[AstNode, int]]


class _Parse:
    """One parse: the grammar, the node function compiled for each of its
    productions, the tokens, and the farthest failure with the terminals
    expected there."""

    __slots__ = ("grammar", "nodes", "tokens", "farthest", "expected")

    def __init__(self, grammar: GrammarDef, tokens: Tokens):
        self.grammar = grammar
        self.nodes: dict[str, _Node] = {}
        self.tokens = tokens
        self.farthest = 0
        self.expected: set[str] = set()

    def fail(self, pos: int, expected: tuple[str, ...]) -> None:
        """Record a failure at token `pos`."""
        if pos > self.farthest:
            self.farthest = pos
            self.expected = set(expected)
        elif pos == self.farthest:
            self.expected.update(expected)


# -- compiling --------------------------------------------------------------
#
# Module-level functions, so that no closure refers to another through the
# scope it was made in: the one cycle runs through `_Parse.nodes`, which
# `parse_model` empties when it is done.

def _node(p: _Parse, prod: Production, fields: tuple[tuple[str, str], ...]) -> _Node:
    body = _sequence(p, prod.elements)
    locate, name = p.tokens.locate, prod.name

    def node(pos):
        acc: _Fields = {}
        try:
            end = body(pos, acc)
        except RecursionError:
            raise _TooDeep(pos) from None
        values: dict[str, object] = {}
        for label, card in fields:
            found = acc.get(label, [])
            if card == "":
                values[label] = found[0]
            elif card == "list":
                values[label] = found
            elif card == "option":
                values[label] = found[0] if found else None
            else:
                values[label] = frozenset(found)
        return AstNode(name, values, pos, locate), end

    return node


def _sequence(p: _Parse, elements: tuple[Element, ...]) -> _Matcher:
    matchers = [_element(p, el) for el in elements]
    if len(matchers) == 1:
        return matchers[0]

    def sequence(pos, acc):
        for match in matchers:
            pos = match(pos, acc)
        return pos

    return sequence


def _element(p: _Parse, el: Element) -> _Matcher:
    if isinstance(el, (Terminal, TerminalSynonyms)):
        return _terminal(p, el.all_spellings())
    if isinstance(el, NonterminalRef):
        if el.target == IDENT_TOKEN:
            return _ident(p, el.field_label)
        return _reference(p, el.field_label, p.grammar.alternatives[el.target])
    if isinstance(el, Group):
        return _group(p, el)
    return _stereotypes(p)


def _terminal(p: _Parse, spellings: tuple[str, ...]) -> _Matcher:
    texts, expected = p.tokens.texts, tuple(map(repr, spellings))

    # No IDENT spells a terminal: the scanner makes word-like terminals
    # keywords, and the other terminals are not words.
    def terminal(pos, acc):
        if texts[pos] in spellings:
            return pos + 1
        p.fail(pos, expected)
        raise _Backtrack

    return terminal


def _ident(p: _Parse, label: str) -> _Matcher:
    kinds, texts = p.tokens.kinds, p.tokens.texts

    def ident(pos, acc):
        if kinds[pos] != "ident":
            p.fail(pos, (IDENT_TOKEN,))
            raise _Backtrack
        acc.setdefault(label, []).append(texts[pos])
        return pos + 1

    return ident


def _reference(p: _Parse, label: str, alternatives: tuple[str, ...]) -> _Matcher:
    nodes, first, last = p.nodes, alternatives[:-1], alternatives[-1]

    def reference(pos, acc):
        for name in first:
            try:
                node, end = nodes[name](pos)
                break
            except _Backtrack:
                pass
        else:
            node, end = nodes[last](pos)
        acc.setdefault(label, []).append(node)
        return end

    return reference


def _stereotypes(p: _Parse) -> _Matcher:
    texts, name, close = p.tokens.texts, _ident(p, STEREOTYPE_FIELD), _terminal(p, (">>",))

    def stereotypes(pos, acc):
        while texts[pos] == "<<":
            pos = close(name(pos + 1, acc), acc)
        return pos

    return stereotypes


def _group(p: _Parse, group: Group) -> _Matcher:
    body = _sequence(p, group.elements)
    if group.cardinality == "once":
        return body
    once = group.cardinality == "optional"
    head = group.elements[0]
    # A body opened by a terminal cannot start at another token: the
    # failure its try would record is recorded without the try.
    spellings = head.all_spellings() if isinstance(head, (Terminal, TerminalSynonyms)) else ()
    texts, expected = p.tokens.texts, tuple(map(repr, spellings))
    # Fields of its own where an element that can fail (anything but an
    # optional or starred group) follows one that may have written, or for
    # a once-group, which may do both.
    direct, wrote = True, False
    for el in group.elements:
        inner = isinstance(el, Group) and el.cardinality == "once"
        if inner or wrote and not isinstance(el, Group):
            direct = False
            break
        wrote = wrote or not isinstance(el, (Terminal, TerminalSynonyms))

    def repeat(pos, acc):
        while True:
            if spellings and texts[pos] not in spellings:
                p.fail(pos, expected)
                return pos
            matched: _Fields = acc if direct else {}
            try:
                end = body(pos, matched)
            except _Backtrack:
                return pos
            if not direct:
                for label, values in matched.items():
                    acc.setdefault(label, []).extend(values)
            if once or end == pos:
                return end
            pos = end

    return repeat


# -- parsing ----------------------------------------------------------------

def parse_model(grammar: GrammarDef, source: str) -> AstNode:
    """Parse a model text against a grammar from `parse_grammar`; the result
    conforms to the grammar's schema."""
    tokens = tokenize_model(grammar, source)
    p = _Parse(grammar, tokens)
    kinds, texts = tokens.kinds, tokens.texts
    fields = {
        dt.name: tuple((f.label, f.card) for f in dt.fields) for dt in grammar.schema.datatypes
    }
    try:
        try:
            for prod in grammar.productions:
                p.nodes[prod.name] = _node(p, prod, fields[prod.name])
        except RecursionError:
            # Compiling recurses more often per group level than reading
            # the grammar did.
            where = tokens.locate(0)
            raise ModelParseError("grammar nested too deeply to parse a model", *where) from None
        try:
            node, pos = p.nodes[grammar.start_production](0)
        except _Backtrack:
            node, pos = None, 0
        except _TooDeep as exc:
            # The descent recurses once per nesting level; past the
            # interpreter's recursion limit the model is refused, not the
            # process.
            where = tokens.locate(exc.args[0])
            raise ModelParseError("model nested too deeply to parse", *where) from None
    finally:
        p.nodes.clear()
    # A failure farther than the parse reached is the error, not the rest.
    if node is not None and p.farthest <= pos:
        if kinds[pos] == "eof":
            return node
        message = f"trailing input starting at {texts[pos]!r}"
        raise ModelParseError(message, *tokens.locate(pos))
    expected = frozenset(p.expected)
    message = f"expected {', '.join(sorted(expected))}, got {tokens.name(p.farthest)}"
    raise ModelParseError(message, *tokens.locate(p.farthest), expected)
