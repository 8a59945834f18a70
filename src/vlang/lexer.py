"""The one character scanner behind grammars (.mclang), models, feature
diagrams (.fd) and configurations (.conf).  Each vocabulary's pattern is
built once (`token_pattern`) and passed in: that of grammar, .fd and .conf
files at the first parse, and that of a grammar's models when
`parse_grammar` validates the grammar, which carries it.  Spaces, tabs,
carriage returns and newlines separate tokens; a ``//`` comment runs from
where a token could start to the end of its line and takes no columns.
Words match the format's word pattern, punctuation is matched
longest-first, and only grammars have quoted strings.  Any other character
is an error of the format's own class, at a 1-based line and column.

No token spans a line, so the scanner finds each line that holds ``//``,
splits that line alone with the pattern, and overwrites the comment it
meets, if any, with blanks of the same width: a ``//`` inside a string or a
mark such as ``://`` starts none.  Then it splits the whole source with the
pattern in one call, which gives the blank runs and the tokens in turn, and
returns the tokens as columns (`Tokens`): their kinds and their texts.  A
token's kind follows from its text: the vocabulary's punctuation and the
keywords are looked up, every other word is an identifier, and only a
source holding a quote has strings to find.  Start offsets, and the lines
and columns they fall on, are computed on first read, for an error or a
node position that someone reads; a parse that reads none computes none.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple

IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_BLANKS = " \t\r\n"


class SourceError(Exception):
    """An error at a 1-based line and column of a source text, or in the text
    as a whole when no line is given."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class TokenPattern(NamedTuple):
    """A vocabulary as `scan` reads it: the pattern whose one group is a
    token, the kind of each punctuation mark, and whether quoted strings are
    tokens."""

    regex: re.Pattern[str]
    punct: dict[str, str]
    strings: bool


def token_pattern(
    punct: Iterable[str], word: str = IDENT.pattern, *, strings: bool = False
) -> TokenPattern:
    """The pattern of a vocabulary's punctuation and word pattern (which has
    no group).  A mark that starts or ends with a blank, or starts with a
    quote or ``//``, can never be a token, and is left out: no token before
    a comment can then reach into the blanks that replace it."""
    # Punctuation longest first, ties in a fixed order; `(?!)` matches
    # nothing, for a vocabulary without punctuation.
    ordered = sorted(
        {p for p in punct if p and p == p.strip(_BLANKS) and p[0] != '"' and p[:2] != "//"},
        key=lambda p: (-len(p), p),
    )
    marks = "|".join(map(re.escape, ordered)) or "(?!)"
    string = r'|"[^"\n]*"' if strings else ""
    # One token: a comment, a quoted string, a word or punctuation.  A
    # character that starts none of them stays between the tokens.
    regex = re.compile(rf"(//[^\n]*{string}|{word}|{marks})")
    # A word-like mark is always matched as a word.
    word_re = re.compile(word)
    return TokenPattern(regex, {p: "punct" for p in ordered if not word_re.fullmatch(p)}, strings)


class Tokens:
    """The tokens of one source, as columns: each token's kind ("ident",
    "keyword", "string", "punct", and "eof" last) and its text (a string's
    without its quotes).  The source kept is the one scanned, its comments
    blanked, so it has the same offsets and lines.  The start offsets
    (`starts`) and the table of line starts behind `where` and `locate` are
    computed on first read, the offsets by finding the tokens in the source
    again; the "eof" token starts at `end`: the end of the source, or the
    comment that ends it."""

    __slots__ = ("kinds", "texts", "_source", "_regex", "_end", "_starts", "_lines")

    def __init__(
        self, kinds: list[str], texts: list[str], source: str, regex: re.Pattern[str], end: int
    ):
        self.kinds = kinds
        self.texts = texts
        self._source = source
        self._regex = regex
        self._end = end
        self._starts: list[int] | None = None
        self._lines: list[int] | None = None

    @property
    def starts(self) -> list[int]:
        """Each token's start offset."""
        starts = self._starts
        if starts is None:
            found = self._regex.finditer(self._source)
            starts = self._starts = [*map(re.Match.start, found), self._end]
        return starts

    def where(self, offset: int) -> tuple[int, int]:
        """The 1-based line and column of a source offset."""
        lines = self._lines
        if lines is None:
            # The offset each line starts at: one past the end of the last.
            ends = accumulate(map((1).__add__, map(len, self._source.split("\n"))))
            lines = self._lines = [0, *ends]
        line = bisect_right(lines, offset)
        return line, offset - lines[line - 1] + 1

    def locate(self, i: int) -> tuple[int, int]:
        """The 1-based line and column token `i` starts at."""
        return self.where(self.starts[i])

    def name(self, i: int) -> str:
        """Token `i` as an error names it: ``end of input`` or its quoted
        text."""
        return "end of input" if self.kinds[i] == "eof" else repr(self.texts[i])


def scan(
    source: str,
    pattern: TokenPattern,
    error: type[SourceError],
    *,
    keywords: Iterable[str] = frozenset(),
) -> Tokens:
    """Tokenize `source` with a `token_pattern`; the columns end with one
    "eof" token."""
    regex, end = pattern.regex, len(source)
    # Each line holding "//" is split alone; a comment among its tokens
    # becomes blanks up to the line's end.
    pieces, done, at = [], 0, source.find("//")
    while at >= 0:
        line, stop = source.rfind("\n", 0, at) + 1, source.find("\n", at)
        stop = len(source) if stop < 0 else stop
        for m in regex.finditer(source, line, stop):
            if m[1][:2] == "//":
                pieces += source[done:m.start()], " " * (stop - m.start())
                done = stop
                if stop == len(source):
                    end = m.start()
                break
        at = source.find("//", stop)
    if pieces:
        source = "".join(pieces) + source[done:]
    parts = regex.split(source)
    texts = parts[1::2]
    kind = dict.fromkeys(keywords, "keyword")
    kind.update(pattern.punct)
    kinds = list(map(kind.get, texts, repeat("ident")))
    tokens = Tokens(kinds, texts, source, regex, end)
    gaps = parts[::2]
    if "".join(gaps).strip(_BLANKS):
        # A character no token starts with: the first one is the error.
        i = next(i for i, gap in enumerate(gaps) if gap.strip(_BLANKS))
        rest = gaps[i].lstrip(_BLANKS)
        where = tokens.where(sum(map(len, parts[:2 * i + 1])) - len(rest))
        if pattern.strings and rest[0] == '"':
            raise error("unterminated terminal string", *where)
        raise error(f"illegal character {rest[0]!r}", *where)
    if '"' in source:
        for i in [i for i, text in enumerate(texts) if text[0] == '"']:
            kinds[i], texts[i] = "string", texts[i][1:-1]
    kinds.append("eof")
    texts.append("")
    return tokens


class Cursor:
    """Token access shared by the grammar and feature parsers; the position
    never moves past the "eof" token.  Errors are raised as `error`."""

    error: type[SourceError]

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = 0

    def _advance(self) -> str:
        """The current token's text; the position moves past it."""
        text = self.texts[self.pos]
        if self.kinds[self.pos] != "eof":
            self.pos += 1
        return text

    def _at(self, kind: str, text: str) -> bool:
        return self.kinds[self.pos] == kind and self.texts[self.pos] == text

    def _err(self, message: str, at: int | None = None) -> SourceError:
        """An error at token `at`, by default the current token."""
        return self.error(message, *self.tokens.locate(self.pos if at is None else at))

    def _got(self) -> str:
        return self.tokens.name(self.pos)

    def _take(self, kind: str, text: str | None = None) -> str:
        """Consume the current token, which must be of `kind` and, when
        given, `text`; its text."""
        pos = self.pos
        if self.kinds[pos] != kind or text not in (None, self.texts[pos]):
            raise self._err(f"expected {kind if text is None else text!r}, got {self._got()}")
        if kind != "eof":
            self.pos = pos + 1
        return self.texts[pos]
