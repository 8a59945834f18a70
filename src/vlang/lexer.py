"""The one character scanner behind grammars (.mclang), models, feature
diagrams (.fd) and configurations (.conf); each format passes its vocabulary
in as data.  Spaces, tabs, carriage returns and newlines separate tokens; a
``//`` comment runs to the end of its line and takes no columns.  Words match
the format's word pattern, punctuation is matched longest-first, and only
grammars have quoted strings.  Any other character is an error of the
format's own class, at a 1-based line and column.
"""

from __future__ import annotations

import re
from typing import Container, Iterable, NamedTuple

IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class SourceError(Exception):
    """An error at a 1-based line and column of a source text, or in the text
    as a whole when no line is given."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


def scan(
    source: str,
    punct: Iterable[str],
    error: type[SourceError],
    *,
    word: str = IDENT.pattern,
    keywords: Container[str] = frozenset(),
    strings: bool = False,
) -> list[Token]:
    """Tokenize `source`; the list ends with one "eof" token."""
    # Ties in a fixed order: one vocabulary always gives the same pattern
    # text, which re's cache then compiles only once.
    ordered = sorted(filter(None, punct), key=lambda p: (-len(p), p))
    longest_first = "|".join(map(re.escape, ordered))
    pattern = re.compile(
        r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)"
        + (r'|(?P<string>"[^"\n]*")' if strings else "")
        + f"|(?P<ident>{word})"
        + (f"|(?P<punct>{longest_first})" if longest_first else "")
        + r"|(?P<illegal>.)",
        re.DOTALL,
    )
    tokens: list[Token] = []
    line, line_start, end = 1, 0, len(source)
    for m in pattern.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            if m.end() == len(source):
                end = m.start()
        elif kind != "space":
            text, col = m.group(), m.start() - line_start + 1
            if kind == "illegal":
                if strings and text == '"':
                    raise error("unterminated terminal string", line, col)
                raise error(f"illegal character {text!r}", line, col)
            if kind == "string":
                text = text[1:-1]
            elif kind == "ident" and text in keywords:
                kind = "keyword"
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


def token_name(tok: Token) -> str:
    """A token as an error names it: ``end of input`` or its quoted text."""
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class Cursor:
    """Token access shared by the grammar and feature parsers; the position
    never moves past the "eof" token.  Errors are raised as `error`."""

    error: type[SourceError]

    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def _advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at(self, kind: str, text: str) -> bool:
        tok = self._peek()
        return tok.kind == kind and tok.text == text

    def _err(self, message: str, tok: Token | None = None) -> SourceError:
        """An error at `tok`, by default the current token."""
        tok = self._peek() if tok is None else tok
        return self.error(message, tok.line, tok.col)

    def _got(self) -> str:
        return token_name(self._peek())

    def _take(self, kind: str, text: str | None = None) -> Token:
        """Consume the current token, which must be of `kind` and, when
        given, `text`."""
        tok = self._peek()
        if tok.kind != kind or text not in (None, tok.text):
            raise self._err(f"expected {kind if text is None else text!r}, got {self._got()}")
        return self._advance()
