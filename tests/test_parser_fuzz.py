"""Token soups for the four text parsers: each input ends in a result or in
the parser's documented error, never in another exception, and every model
parsed conforms to its grammar's derived schema.  The four share one
scanner, whose lexical errors are pinned here too.

A soup is a prefix of a well-formed document, so parsing gets past the
header, followed by tokens drawn from the format's vocabulary, stray
characters and unterminated strings included.

The model parser, which compiles its grammar, must also give what the
grammar interpreter it replaced gives (`oracles.oracle_parse_model`): on the
model soups, and on random grammars with models derived from them, some
with one token dropped, repeated or replaced.  The model vocabulary a random
grammar carries must give the keywords and tokens of the one the model
scanner derived before (`oracles.oracle_model_vocabulary`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    conforms,
    oracle_model_vocabulary,
    oracle_parse_model,
    oracle_tokenize_model,
    token_rows,
)
from vlang import bundled
from vlang.features import (
    FeatureModelError,
    FeatureSyntaxError,
    parse_configurations,
    parse_feature_diagrams,
)
from vlang.grammar import (
    IDENT_TOKEN,
    GrammarError,
    NonterminalRef,
    StereotypeSlot,
    Terminal,
    TerminalSynonyms,
    parse_grammar,
)
from vlang.modelparse import ModelParseError, TokenizeError, parse_model, tokenize_model
from vlang.schema import AstNode, derive_schema, dump_ast

_PUNCT = ["{", "}", "(", ")", ";", ":", "=", "|", "*", "?", ",", ".", "$", "<<", ">>", "<<?>>"]
_NAMES = ["A", "B", "x", "IDENT", "for", "kind", "//c\n", "\n", '"', '""', '"a"', '"b', "1"]

_CD = parse_grammar(bundled.CD_GRAMMAR_TEXT)


def _conforming_parse(text):
    node = parse_model(_CD, text)
    assert conforms(node, derive_schema(_CD)), text
    return node


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
        _conforming_parse,
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

    # Five times the profile's budget: 300 examples by default, 3,000 deep.
    @settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
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


def _outcome(parse, grammar, text):
    """The AST's dump and every node's position, or the error in full."""
    try:
        node = parse(grammar, text)
    except (TokenizeError, ModelParseError) as exc:
        return type(exc), str(exc), exc.line, exc.col, getattr(exc, "expected", None)
    return dump_ast(node), _positions(node)


def _positions(value):
    if isinstance(value, AstNode):
        return [(value.datatype, value.pos), *(p for v in value.fields.values() for p in _positions(v))]
    if isinstance(value, list):
        return [p for v in value for p in _positions(v)]
    return []


def _same_as_the_interpreter(grammar, text):
    assert _outcome(parse_model, grammar, text) == _outcome(oracle_parse_model, grammar, text), text


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(_soups(CASES["model"][2], CASES["model"][3]))
def test_model_soups_parse_as_the_interpreter_parses_them(text):
    _same_as_the_interpreter(_CD, text)


_TERMINALS = ["a", "b", "key", "{", "}", ";", ",", "->", "-"]
_CARDS = ["", "", "?", "*"]


@st.composite
def _grammar_texts(draw):
    """A grammar of up to three productions and two sugar productions, whose
    elements are every form the grammar format has; some fail validation.
    Most productions start with a terminal, so that few recurse on the left,
    and a quarter have a stereotype slot (at most one, outside groups)."""
    names = [f"P{i}" for i in range(draw(st.integers(1, 3)))]

    def terminal():
        return f'"{draw(st.sampled_from(_TERMINALS))}"'

    def element(depth):
        kind = draw(st.sampled_from(["terminal", "synonyms", "ident", "reference", "group"][: 5 if depth < 2 else 4]))
        if kind == "terminal":
            return terminal()
        if kind == "synonyms":
            spellings = draw(st.lists(st.sampled_from(_TERMINALS), min_size=2, max_size=3, unique=True))
            return "(" + " | ".join(f'"{t}"' for t in spellings) + ")"
        if kind == "ident":
            return f"{draw(st.sampled_from('xyz'))}:IDENT{draw(st.sampled_from(_CARDS))}"
        if kind == "reference":
            target = draw(st.sampled_from(names))
            return f"{draw(st.sampled_from(['', f'r{target}:']))}{target}{draw(st.sampled_from(_CARDS))}"
        return f"({' '.join(body(depth + 1))}){draw(st.sampled_from(_CARDS))}"

    def body(depth):
        return [element(depth) for _ in range(draw(st.integers(1, 3)))]

    def production():
        elements = body(0)
        if draw(st.integers(0, 3)) == 0:
            elements.insert(draw(st.integers(0, len(elements))), "<<?>>")
        if draw(st.integers(0, 3)) > 0:
            elements.insert(0, terminal())
        return " ".join(elements)

    lines = [f"{name} = {production()};" for name in names]
    lines += [f"sugar S{i} for {draw(st.sampled_from(names))} = {production()};"
              for i in range(draw(st.integers(0, 2)))]
    return "grammar G {\n" + "\n".join(lines) + "\n}"


class _TooLong(Exception):
    """A derivation that does not end soon."""


def _derive(draw, grammar, name, out, depth=0):
    """Append the tokens of a random model of production `name` (or one of
    its sugar alternatives) to `out`."""
    if depth > 8 or len(out) > 60:
        raise _TooLong
    prod = draw(st.sampled_from([*map(grammar.production, grammar.alternatives[name])]))
    for el in prod.elements:
        _emit(draw, grammar, el, out, depth)


def _emit(draw, grammar, el, out, depth):
    if isinstance(el, Terminal):
        out.append(el.text)
    elif isinstance(el, TerminalSynonyms):
        out.append(draw(st.sampled_from(el.all_spellings())))
    elif isinstance(el, NonterminalRef):
        if el.target == IDENT_TOKEN:
            out.append(draw(st.sampled_from(["p", "q"])))
        else:
            _derive(draw, grammar, el.target, out, depth + 1)
    elif isinstance(el, StereotypeSlot):
        for _ in range(draw(st.integers(0, 2))):
            out += ["<<", draw(st.sampled_from(["s", "t"])), ">>"]
    else:
        most = {"once": 1, "optional": 1, "star": 2}[el.cardinality]
        for _ in range(draw(st.integers(most if el.cardinality == "once" else 0, most))):
            for inner in el.elements:
                _emit(draw, grammar, inner, out, depth)


@st.composite
def _grammars_and_models(draw):
    try:
        grammar = parse_grammar(draw(_grammar_texts()))
    except GrammarError:
        return None
    tokens: list[str] = []
    try:
        _derive(draw, grammar, grammar.start_production, tokens)
    except _TooLong:
        pass
    edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "replace"]))
    if edit != "none" and tokens:
        i = draw(st.integers(0, len(tokens) - 1))
        other = draw(st.sampled_from([*_TERMINALS, "p", "<<", ">>", "%"]))
        tokens[i : i + 1] = {"drop": [], "repeat": [tokens[i]] * 2, "replace": [other]}[edit]
    separators = st.sampled_from([" ", "\n", "\t", " // c\n"])
    return grammar, "".join(t + draw(separators) for t in tokens)


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(_grammars_and_models())
def test_random_grammars_parse_as_the_interpreter_parses(case):
    if case is not None:
        _same_as_the_interpreter(*case)


@st.composite
def _grammars_and_texts(draw):
    try:
        grammar = parse_grammar(draw(_grammar_texts()))
    except GrammarError:
        return None
    words = draw(st.lists(st.sampled_from([*_TERMINALS, "p", "<<", ">>", "<", "%", "//c", "ke"])))
    separators = st.sampled_from([" ", "", "\n", "\t"])
    return grammar, "".join(w + draw(separators) for w in words)


def _rows(grammar, text):
    return token_rows(tokenize_model(grammar, text))


def _tokens(tokenize, grammar, text):
    try:
        return tokenize(grammar, text)
    except TokenizeError as exc:
        return str(exc)


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(_grammars_and_texts())
def test_random_grammars_carry_the_former_model_vocabulary(case):
    if case is not None:
        grammar, text = case
        assert grammar.keywords == oracle_model_vocabulary(grammar)[0]
        assert _tokens(_rows, grammar, text) == _tokens(oracle_tokenize_model, grammar, text)
