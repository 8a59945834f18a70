"""Token soups for the four text parsers: each input ends in a result or in
the parser's documented error, never in another exception.  The four share
one scanner, whose lexical errors are pinned here too.

A soup is a prefix of a well-formed document, so parsing gets past the
header, followed by tokens drawn from the format's vocabulary, stray
characters and unterminated strings included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlang import bundled
from vlang.features import (
    FeatureModelError,
    FeatureSyntaxError,
    parse_configurations,
    parse_feature_diagrams,
)
from vlang.grammar import GrammarError, parse_grammar
from vlang.modelparse import ModelParseError, TokenizeError, parse_model

_PUNCT = ["{", "}", "(", ")", ";", ":", "=", "|", "*", "?", ",", ".", "$", "<<", ">>", "<<?>>"]
_NAMES = ["A", "B", "x", "IDENT", "for", "kind", "//c\n", "\n", '"', '""', '"a"', '"b', "1"]

CASES = {
    "grammar": (
        parse_grammar,
        GrammarError,
        bundled.CD_GRAMMAR_TEXT,
        ["grammar", "sugar", '"class"', '"extends"', *_PUNCT, *_NAMES],
    ),
    "feature diagrams": (
        parse_feature_diagrams,
        FeatureModelError,
        bundled.EXAMPLE_FD_TEXT,
        ["featurediagram", "vp", "theory", "feature", "optional", "mandatory", "xor", "or",
         "semantic-domain", "semantic-mapping", "constraint", "requires", "excludes",
         *_PUNCT, *_NAMES],
    ),
    "configurations": (
        parse_configurations,
        FeatureModelError,
        bundled.DOMAIN_CONF_TEXT + bundled.MAPPING_CONF_TEXT,
        ["configuration", "select", "SingleInheritance", *_PUNCT, *_NAMES],
    ),
    "model": (
        lambda text: parse_model(parse_grammar(bundled.CD_GRAMMAR_TEXT), text),
        (TokenizeError, ModelParseError),
        "classdiagram D { <<singleton>> class A extends B, C; classes B, C; class D ext A; }",
        ["classdiagram", "class", "classes", "extends", "ext", "<<singleton>>", "singleton",
         *_PUNCT, *_NAMES],
    ),
}


@st.composite
def _soups(draw, document: str, vocabulary: list[str]):
    words = document.split()
    prefix = words[: draw(st.integers(0, len(words)))]
    tail = draw(st.lists(st.sampled_from(vocabulary), max_size=25))
    separators = st.sampled_from([" ", "", "\n", "\t"])
    return "".join(word + draw(separators) for word in prefix + tail)


@pytest.mark.parametrize("name", CASES)
def test_parser_ends_in_a_result_or_its_documented_error(name):
    parse, error, document, vocabulary = CASES[name]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_soups(document, vocabulary))
    def check(text):
        try:
            parse(text)
        except error:
            pass

    check()


@pytest.mark.parametrize("name, error, bad, message", [
    ("grammar", GrammarError, "$", "illegal character '$'"),
    ("grammar", GrammarError, '"x;', "unterminated terminal string"),
    ("model", TokenizeError, "%", "illegal character '%'"),
    ("feature diagrams", FeatureSyntaxError, '"', "illegal character '\"'"),
    ("configurations", FeatureSyntaxError, "#", "illegal character '#'"),
])
def test_lexical_error_names_its_line_and_column(name, error, bad, message):
    # The tab and the carriage return take one column each.
    parse = CASES[name][0]
    with pytest.raises(error) as exc:
        parse("A // note\nB\n\tC\r" + bad)
    assert type(exc.value) is error
    assert str(exc.value) == f"line 3, col 4: {message}"
    assert (exc.value.line, exc.value.col) == (3, 4)
