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
and columns they fall on, are computed when an error or a node position
reads them, and offsets only up to the token read; a parse that reads none
computes none.

Every reader reads the columns by index: the grammar reader, the .fd and
.conf readers and the model parser.  The first three raise their errors
through `Tokens.fail`, which gives the format's error class the line and
column of a token.

Every command scans, so the base of the errors a command refuses its input
with, `RefusalError`, is defined here too: importing the command line loads
no other library module to catch them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, filterfalse, islice, repeat
from typing import Iterable, Iterator, NamedTuple

IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_BLANKS = " \t\r\n"


class RefusalError(Exception):
    """A refused input that no syntax error names: a model that cannot be
    desugared, an unknown condition, a feature model, semantics, analysis
    or naming error.  `cli.main` reports it as one `vlang: <message>` line
    with exit code 2."""


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
    # Punctuation longest first, ties in text order (the sort by length is
    # stable); `(?!)` matches nothing, for a vocabulary without punctuation.
    ordered = sorted(
        sorted({p for p in punct if p and p == p.strip(_BLANKS) and p[0] != '"' and p[:2] != "//"}),
        key=len,
        reverse=True,
    )
    marks = "|".join(map(re.escape, ordered)) or "(?!)"
    string = r'|"[^"\n]*"' if strings else ""
    # One token: a comment, a quoted string, a word or punctuation.  A
    # character that starts none of them stays between the tokens.
    regex = re.compile(rf"(//[^\n]*{string}|{word}|{marks})")
    # A word-like mark is always matched as a word.
    punct_kinds = dict.fromkeys(filterfalse(re.compile(word).fullmatch, ordered), "punct")
    return TokenPattern(regex, punct_kinds, strings)


class Tokens:
    """The tokens of one source, as columns: each token's kind ("ident",
    "keyword", "string", "punct", and "eof" last) and its text (a string's
    without its quotes).  The source kept is the one scanned, its comments
    blanked, so it has the same offsets and lines.  Start offsets are found
    on demand, by finding the tokens in the source again up to the one asked
    for (`locate`), or all of them (`starts`); the table of line starts
    behind `where` is computed on first read.  The "eof" token starts at
    `end`: the end of the source, or the comment that ends it.  `fail`
    makes the format's `error` at a token."""

    __slots__ = (
        "kinds", "texts", "error", "_source", "_regex", "_end", "_starts", "_found", "_lines"
    )

    def __init__(
        self,
        kinds: list[str],
        texts: list[str],
        source: str,
        regex: re.Pattern[str],
        end: int,
        error: type[SourceError],
    ):
        self.kinds = kinds
        self.texts = texts
        self.error = error
        self._source = source
        self._regex = regex
        self._end = end
        self._starts: list[int] | None = None
        self._found: Iterator[int] | None = None
        self._lines: list[int] | None = None

    def _starts_to(self, n: int) -> list[int]:
        """The start offsets, found up to the first `n` tokens at least."""
        starts = self._starts
        if starts is None:
            starts = self._starts = []
            self._found = map(re.Match.start, self._regex.finditer(self._source))
        if len(starts) < n:
            starts += islice(self._found, n - len(starts))
            if len(starts) < n:
                starts.append(self._end)
        return starts

    @property
    def starts(self) -> list[int]:
        """Each token's start offset."""
        return self._starts_to(len(self.kinds))

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
        """The 1-based line and column token `i` (not negative) starts at."""
        return self.where(self._starts_to(i + 1)[i])

    def name(self, i: int) -> str:
        """Token `i` as an error names it: ``end of input`` or its quoted
        text."""
        return "end of input" if self.kinds[i] == "eof" else repr(self.texts[i])

    def fail(self, i: int, message: str, got: bool = False) -> SourceError:
        """The format's error at token `i`: `message`, followed with `got`
        by the token's name (``expected ';', got end of input``)."""
        if got:
            message = f"{message}, got {self.name(i)}"
        return self.error(message, *self.locate(i))


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
    tokens = Tokens(kinds, texts, source, regex, end, error)
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
