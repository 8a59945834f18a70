"""The scanner, which splits the whole source once into token columns,
against the scanner it replaced (`oracles.oracle_scan`, one step per token,
blank run and newline, one record per token): in each format's vocabulary,
every text gives the same tokens, each with the same kind, text, line and
column, or the same error at the same line and column.  `locate`, read in
any order, against the positions of the whole offset column.  And the
readers' steps at the end of input, whose errors `Tokens.fail` makes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_scan, token_rows
from vlang import bundled
from vlang.features import _WORD, FeatureSyntaxError, parse_configurations, parse_feature_diagrams
from vlang.grammar import _PUNCT, GrammarError, parse_grammar
from vlang.lexer import IDENT, SourceError, scan, token_pattern
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


def test_taking_eof_returns_it_and_stays_on_it():
    """No reader indexes past the "eof" token: each cut of a document ends
    in its result or in the format's error at a token, at the last one at
    most."""
    for parse, document in [
        (parse_grammar, bundled.CD_GRAMMAR_TEXT),
        (parse_feature_diagrams, bundled.EXAMPLE_FD_TEXT),
        (parse_configurations, bundled.DOMAIN_CONF_TEXT + bundled.MAPPING_CONF_TEXT),
    ]:
        words = document.split()
        for n in range(len(words) + 1):
            text = " ".join(words[:n]) + "\n  // no body"
            try:
                parse(text)
            except SourceError as exc:
                assert (exc.line, exc.col) <= (2, 3), text


@pytest.mark.parametrize("parse, text, error, message", [
    (parse_feature_diagrams, "featurediagram D", FeatureSyntaxError, "expected '{', got end of input"),
    (parse_grammar, "grammar", GrammarError, "expected 'ident', got end of input"),
    (parse_configurations, "configuration C for D { select", FeatureSyntaxError,
     "expected feature name, got end of input"),
], ids=["take a text", "take a kind", "name"])
def test_a_step_past_eof_raises_at_eof(parse, text, error, message):
    with pytest.raises(error) as exc:
        parse(text + "\n  // no body")
    assert type(exc.value) is error
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line 2, col 3: {message}", 2, 3)


def test_fail_raises_the_format_error_at_its_token():
    tokens = scan("a\n  b c", token_pattern("{};.", _WORD), FeatureSyntaxError)
    exc = tokens.fail(2, "expected ';'", got=True)
    assert type(exc) is FeatureSyntaxError
    assert (str(exc), exc.line, exc.col) == ("line 2, col 5: expected ';', got 'c'", 2, 5)
    exc = tokens.fail(3, "trailing input")
    assert (str(exc), exc.line, exc.col) == ("line 2, col 6: trailing input", 2, 6)


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=30).map("".join), st.data())
def test_locate_in_any_order_equals_the_rows(text, data):
    """`locate` finds offsets up to the token asked for only; read in any
    order, it gives each token the position `token_rows` gives it, which
    reads them in order, and so it does when read again in order."""
    punct, error, options = VOCABULARIES["grammar"]
    try:
        rows = _scan(text, punct, error, **options)
    except error:
        return
    tokens = scan(text, token_pattern(punct, strings=True), error)
    order = data.draw(st.permutations(range(len(rows))))
    assert {i: tokens.locate(i) for i in order} == {i: (r.line, r.col) for i, r in enumerate(rows)}
    assert [tokens.locate(i) for i in range(len(rows))] == [(r.line, r.col) for r in rows]
