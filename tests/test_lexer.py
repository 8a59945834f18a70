"""The scanner, which splits the whole source once into token columns,
against the scanner it replaced (`oracles.oracle_scan`, one step per token,
blank run and newline, one record per token): in each format's vocabulary,
every text gives the same tokens, each with the same kind, text, line and
column, or the same error at the same line and column.  And the cursor's
steps at the end of input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_scan, token_rows
from vlang.features import _WORD, FeatureSyntaxError, _DiagramParser
from vlang.grammar import _PUNCT, GrammarError
from vlang.lexer import IDENT, scan, token_pattern
from vlang.modelparse import TokenizeError

_CD_KEYWORDS = {"classdiagram", "class", "classes", "extends", "ext"}

# (punct, error, options) of a grammar, a model and a feature diagram.
VOCABULARIES = {
    "grammar": (_PUNCT, GrammarError, {"strings": True}),
    "model": (
        {"{", "}", ";", ",", "<<", ">>", "://", "-//", "--"},
        TokenizeError,
        {"keywords": _CD_KEYWORDS},
    ),
    "feature diagram": ("{};.", FeatureSyntaxError, {"word": _WORD}),
}

_ALPHABET = [
    "a", "Z", "x1", "b_c", "class", "classes", "ext", "-", ":", '"', "/", "//",
    *_PUNCT, "<<", ">>", ",", ".", " ", "\t", "\r", "\n", "%",
]


def _outcome(scanner, text, punct, error, options):
    try:
        return scanner(text, punct, error, **options)
    except error as exc:
        return type(exc), str(exc), exc.line, exc.col


def _scan(text, punct, error, *, word=IDENT.pattern, strings=False, **options):
    return token_rows(scan(text, token_pattern(punct, word, strings=strings), error, **options))


def _check(text):
    for punct, error, options in VOCABULARIES.values():
        got = _outcome(_scan, text, punct, error, options)
        assert got == _outcome(oracle_scan, text, punct, error, options), (text, options)


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=30).map("".join))
def test_scan_equals_the_oracle(text):
    _check(text)


@pytest.mark.parametrize("text", [
    "a \t\nb",
    "a  \t",
    " \t\r",
    "a\r\nb\r\n",
    "a\n// note",
    "a\n// note\n",
    "a // note\r",
    'a "b\nc',
    '"a"\n"b',
    'a "b\nc" d',
    "a\tb\r c\t\r;",
    "a // note\nb",
    "// note",
    "a\n\n  %",
    "a\n\t\r\n\t%",
    "",
    "\n",
    "go :// x // c",
    "-- -// x",
    "---// x",
    'a "b//c" // d',
    '// say "x',
    "a // c",
], ids=[
    "blanks at the end of a line",
    "blanks at the end of input",
    "blanks only",
    "crlf line ends",
    "comment on the last line",
    "comment on the last line, final newline",
    "comment ending in a carriage return",
    "unterminated quote at the end of a line",
    "unterminated quote at the end of input",
    "quotes on two lines",
    "tabs and carriage returns inside a line",
    "comment before the last line",
    "comment only",
    "error after a blank line",
    "error after a line of blanks",
    "empty input",
    "newline only",
    "a mark holding // before a comment",
    "marks holding // after their first character",
    "a mark holding // after a shorter mark",
    "a string holding // before a comment",
    "a quote inside a comment",
    "comment at the end of input",
])
def test_scan_equals_the_oracle_on(text):
    _check(text)


def _at_eof():
    """A .fd cursor that has read every token of a text whose end of input
    is on line 2, column 3."""
    cursor = _DiagramParser("featurediagram D\n  // no body")
    cursor._take("ident", "featurediagram")
    assert cursor._name("diagram") == "D"
    assert cursor.pos == len(cursor.kinds) - 1
    return cursor


def test_taking_eof_returns_it_and_stays_on_it():
    cursor = _at_eof()
    tokens = cursor.tokens
    assert (tokens.kinds[-1], tokens.texts[-1], *tokens.where(tokens.starts[-1])) == ("eof", "", 2, 3)
    for _ in range(2):
        assert cursor._take("eof") == ""
        assert cursor.pos == len(cursor.kinds) - 1


@pytest.mark.parametrize("step, message", [
    (lambda c: c._take("punct", "{"), "expected '{', got end of input"),
    (lambda c: c._take("ident"), "expected 'ident', got end of input"),
    (lambda c: c._name("feature"), "expected feature name, got end of input"),
], ids=["take a text", "take a kind", "name"])
def test_a_step_past_eof_raises_at_eof(step, message):
    cursor = _at_eof()
    with pytest.raises(FeatureSyntaxError) as exc:
        step(cursor)
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line 2, col 3: {message}", 2, 3)
    assert cursor.pos == len(cursor.kinds) - 1
