"""The line-by-line scanner against the scanner it replaced
(`oracles.oracle_scan`): in each format's vocabulary, every text gives the
same tokens, or the same error at the same line and column.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_scan
from vlang.features import _WORD, FeatureSyntaxError
from vlang.grammar import _PUNCT, GrammarError
from vlang.lexer import IDENT, scan, token_pattern
from vlang.modelparse import TokenizeError

_CD_KEYWORDS = {"classdiagram", "class", "classes", "extends", "ext"}

# (punct, error, options) of a grammar, a model and a feature diagram.
VOCABULARIES = {
    "grammar": (_PUNCT, GrammarError, {"strings": True}),
    "model": ({"{", "}", ";", ",", "<<", ">>"}, TokenizeError, {"keywords": _CD_KEYWORDS}),
    "feature diagram": ("{};.", FeatureSyntaxError, {"word": _WORD}),
}

_ALPHABET = [
    "a", "Z", "x1", "b_c", "class", "classes", "ext", "-", '"', "/", "//",
    *_PUNCT, "<<", ">>", ",", ".", " ", "\t", "\r", "\n", "%",
]


def _outcome(scanner, text, punct, error, options):
    try:
        return scanner(text, punct, error, **options)
    except error as exc:
        return type(exc), str(exc), exc.line, exc.col


def _scan(text, punct, error, *, word=IDENT.pattern, **options):
    return scan(text, token_pattern(punct, word), error, **options)


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
    "",
    "\n",
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
    "empty input",
    "newline only",
])
def test_scan_equals_the_oracle_on(text):
    _check(text)
