"""The one character scanner behind grammars (.mclang), models, feature
diagrams (.fd) and configurations (.conf).  Each vocabulary's pattern is
built once (`token_pattern`) and passed in: that of grammar, .fd and .conf
files at the first parse, and that of a grammar's models when
`parse_grammar` validates the grammar, which carries it.  Spaces, tabs,
carriage returns and newlines separate tokens; a ``//`` comment runs to the
end of its line and takes no columns.  Words match the format's word
pattern, punctuation is matched longest-first, and only grammars have quoted
strings.  Any other character is an error of the format's own class, at a
1-based line and column.

The scanner splits the source into lines and matches each line with one
pattern that takes the run of blanks in front of every token along with it,
so blanks and line ends cost no step of their own: the line loop counts the
lines, and the columns are the lengths of what was matched so far.
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


def token_pattern(punct: Iterable[str], word: str = IDENT.pattern) -> re.Pattern[str]:
    """The pattern `scan` matches each line with, for a vocabulary's
    punctuation and word pattern (which has no group)."""
    # Punctuation longest first, ties in a fixed order; `(?!)` matches
    # nothing, for a vocabulary without punctuation.
    ordered = sorted(filter(None, punct), key=lambda p: (-len(p), p))
    marks = "|".join(map(re.escape, ordered)) or "(?!)"
    # One match per token, blanks in front: a comment, a quoted string, a
    # word, punctuation, or any other character.
    return re.compile(rf'([ \t\r]*)(?:(//.*)|("[^"]*")|({word})|({marks})|([^ \t\r]))')


def scan(
    source: str,
    pattern: re.Pattern[str],
    error: type[SourceError],
    *,
    keywords: Container[str] = frozenset(),
    strings: bool = False,
) -> list[Token]:
    """Tokenize `source` with a `token_pattern`; the list ends with one "eof"
    token."""
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    for line, text in enumerate(source.split("\n"), 1):
        col = 1
        # Where this line's eof token would sit: its end, or its comment.
        end = len(text) + 1
        for blanks, comment, string, name, mark, other in pattern.findall(text):
            col += len(blanks)
            if name:
                kind = "keyword" if name in keywords else "ident"
                append(new(Token, (kind, name, line, col)))
                col += len(name)
            elif mark:
                append(new(Token, ("punct", mark, line, col)))
                col += len(mark)
            elif comment:
                end = col
            elif string and strings:
                append(new(Token, ("string", string[1:-1], line, col)))
                col += len(string)
            else:
                # A quote is illegal where strings are not tokens.
                char = other or string[0]
                if strings and char == '"':
                    raise error("unterminated terminal string", line, col)
                raise error(f"illegal character {char!r}", line, col)
    append(new(Token, ("eof", "", line, end)))
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
        if ahead:
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def _advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at(self, kind: str, text: str) -> bool:
        tok = self.toks[self.pos]
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
        tok = self.toks[self.pos]
        if tok.kind != kind or text not in (None, tok.text):
            raise self._err(f"expected {kind if text is None else text!r}, got {token_name(tok)}")
        if kind != "eof":
            self.pos += 1
        return tok
