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

The grammar, .fd and .conf readers must read what the cursor readers they
replaced read, and a grammar must pass or fail the validation its separate
walks gave (`oracles.oracle_parse_grammar`, ...): the same value, or the
same error at the same line and column.  On the soups, and on random
grammars, some with several planted defects, so that the first defect
reported must be the same one.

Every subcommand, run through `cli.main` on soups of the bundled texts and
on a grammar and a model nested past the readers' limits, ends in exit 0, 1
or 2, and a failing one's first line on stderr is a documented one.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    conforms,
    oracle_model_vocabulary,
    oracle_parse_configurations,
    oracle_parse_feature_diagrams,
    oracle_parse_grammar,
    oracle_parse_model,
    oracle_tokenize_model,
    token_rows,
)
from vlang import bundled, cli
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
from vlang.lexer import SourceError
from vlang.modelparse import ModelParseError, TokenizeError, parse_model, tokenize_model
from vlang.schema import AstNode, dump_ast

_PUNCT = ["{", "}", "(", ")", ";", ":", "=", "|", "*", "?", ",", ".", "$", "<<", ">>", "<<?>>"]
_NAMES = ["A", "B", "x", "IDENT", "for", "kind", "//c\n", "\n", '"', '""', '"a"', '"b', "1"]

_CD = parse_grammar(bundled.CD_GRAMMAR_TEXT)


def _conforming_parse(text):
    node = parse_model(_CD, text)
    assert conforms(node, _CD.schema), text
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


# ---------------------------------------------------------------------------
# The grammar, .fd and .conf readers against the cursor readers and the
# grammar validation they replaced (`oracles.oracle_parse_grammar`, ...)
# ---------------------------------------------------------------------------

# Words that plant a defect: a spelling no model token matches, a reference
# that is unlabeled, unresolved or conflicting, a misplaced stereotype slot,
# a sugar production, a synonym group with a repeated or empty spelling, and
# stray marks.
_DEFECTS = [
    '"a b"', '"a-"', '""', '"//"', '"%"', '" x"', '"://"', "IDENT", "Q", "x:Q", "x:P0", "x:IDENT*",
    "(x:P1)?", "x:IDENT", "stereotypes:IDENT", "stereotypes:P0", "<<?>>", "(<<?>>)?", "P0", "P1?",
    "(P0)*", "S0", "sugar S0 for P0 =", "sugar S1 for S0 =", "P0 =", '("a" | "a")', '("a" | "")*',
    "(", ")", "|", ";", "*",
]

_READERS = {
    "grammar": (parse_grammar, oracle_parse_grammar),
    "feature diagrams": (parse_feature_diagrams, oracle_parse_feature_diagrams),
    "configurations": (parse_configurations, oracle_parse_configurations),
}


@st.composite
def _defective_grammar_texts(draw):
    """A random grammar with up to four of its inner elements replaced,
    each by a defect or by another of them (a repeated label, a reference to
    the production itself, ...), and at times a production or a sugar base
    renamed."""
    words = draw(_grammar_texts()).split(" ")
    inner = [i for i, w in enumerate(words) if w not in ("grammar", "G", "sugar", "for")
             and not set(w) & set("\n{}=")]
    for _ in range(draw(st.integers(0, 4)) if inner else 0):
        words[draw(st.sampled_from(inner))] = draw(
            st.sampled_from(_DEFECTS) | st.sampled_from([words[i] for i in inner])
        )
    old, new = draw(st.sampled_from([
        ("", ""), ("", ""), ("\nP1 =", "\nP0 ="), ("\nP0 =", "\nIDENT ="), ("for P0", "for S0"),
        ("for P0", "for Q"), (";\n", " x:IDENT (x:P0)?;\n"),
        ("\nP1 =", "\nP1 = <<?>> z:IDENT <<?>>"), ("\nP1 =", "\nP1 = (z:IDENT <<?>>)?"),
        ("\nP0 =", "\nP0 = stereotypes:P0 <<?>>"),
    ]))
    return " ".join(words).replace(old, new)


def _read(parse, text):
    """The value read, or the error in full."""
    try:
        return parse(text)
    except (SourceError, FeatureModelError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _reads_as_the_cursor(name, text):
    parse, oracle = _READERS[name]
    assert _read(parse, text) == _read(oracle, text), text


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(st.one_of(_grammar_texts(), _defective_grammar_texts()))
def test_random_grammars_read_and_validate_as_before(text):
    _reads_as_the_cursor("grammar", text)


@pytest.mark.parametrize("name", _READERS)
def test_soups_read_as_the_cursor_reads_them(name):
    _, _, document, vocabulary = CASES[name]

    @settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
    @given(_soups(document, vocabulary))
    def check(text):
        _reads_as_the_cursor(name, text)

    check()


# ---------------------------------------------------------------------------
# Every subcommand through `cli.main`, on soups of the bundled texts
# ---------------------------------------------------------------------------

def _nested(groups: int) -> str:
    return "grammar G { A = " + "( " * groups + '"a"' + " )" * groups + "; }"


# Each language's grammar and a model of it, and grammars and a model nested
# past the readers' limits.  Hypothesis runs a test with about 2,000 frames
# of recursion to spare, twice the interpreter's default: there a grammar
# nested 600 groups deep is read but too deep to compile for a model, one
# nested 1,200 deep is too deep to read, and a model nested 1,000 levels deep
# is too deep to parse.
_LANGUAGES = [
    (bundled.CDSIMP_GRAMMAR_TEXT, "classdiagram D { class A extends B; class B; }"),
    (bundled.CD_GRAMMAR_TEXT, CASES["model"][2]),
    (bundled.ASSERTION_GRAMMAR_TEXT, "assertions S { no sub A B; sub B A; }"),
    (_nested(600), "a"),
    (_nested(1200), "a"),
    ('grammar N { A = "a" (A)?; }', " ".join(["a"] * 1000)),
]
_FIRST_LINES = ("vlang:", "usage:", "generation failed:")


@st.composite
def _spliced(draw, document: str, vocabulary: list[str]):
    """`document` whole (half the time), or cut short or with up to two of
    its words replaced, followed or replaced by up to four tokens of
    `vocabulary`."""
    how = draw(st.sampled_from(["whole", "whole", "cut", "splice"]))
    if how == "whole":
        return document
    words = document.split()
    i = draw(st.integers(0, len(words)))
    j = len(words) if how == "cut" else draw(st.integers(i, min(i + 2, len(words))))
    middle = draw(st.lists(st.sampled_from(vocabulary), max_size=4))
    return " ".join(words[:i] + middle + words[j:]) + "\n"


@st.composite
def _languages(draw):
    grammar, model = draw(st.sampled_from(_LANGUAGES))
    models = [draw(_spliced(model, CASES["model"][3])) for _ in range(2)]
    return draw(_spliced(grammar, CASES["grammar"][3])), models


def _class_names(languages) -> int:
    """An upper bound on the classes the models name: their IDENT tokens."""
    names = set()
    for grammar_text, models in languages:
        try:
            grammar = parse_grammar(grammar_text)
            for text in models:
                tokens = tokenize_model(grammar, text)
                names.update(t for k, t in zip(tokens.kinds, tokens.texts) if k == "ident")
        except SourceError:
            pass
    return len(names)


@settings(deadline=None, derandomize=True)
@given(
    st.lists(_languages(), min_size=2, max_size=2),
    _spliced(bundled.EXAMPLE_FD_TEXT, CASES["feature diagrams"][3]),
    _spliced(bundled.DOMAIN_CONF_TEXT + bundled.MAPPING_CONF_TEXT, CASES["configurations"][3]),
    st.fixed_dictionaries({
        "--cc": st.sampled_from(["", "CC-supers-declared", "CC-single-inheritance-syntactic,CC-x"]),
        "--max-objects": st.sampled_from(["0", "1", "2", "-1", "x"]),
        "--extra-classes": st.lists(st.sampled_from(["X", "A", "Y", "x y"]), max_size=2).map(",".join),
        "--witnesses": st.sampled_from(["0", "2", "-1"]),
        "analyze": st.sampled_from(["refine", "equiv"]),
    }),
)
def test_every_subcommand_ends_in_an_exit_code(languages, diagram, configurations, flags):
    """Every command line ends in exit 0, 1 or 2 (argparse's included), and
    a failing one that writes to stderr starts with a documented first line.
    The semantic commands run only while the models name at most five
    classes with the extra ones: the enumeration grows with every class
    (ROADMAP item 3)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = {"d.fd": diagram, "c.conf": configurations}
        for n, (grammar, models) in enumerate(languages):
            files[f"g{n}.mclang"] = grammar
            files.update((f"m{n}{i}.txt", text) for i, text in enumerate(models))
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        path = {name: str(work / name) for name in files}
        g, m, fd, conf = (path[name] for name in ("g0.mclang", "m00.txt", "d.fd", "c.conf"))
        bounds = ["--max-objects", flags["--max-objects"], "--extra-classes", flags["--extra-classes"]]
        commands = [
            ["check-grammar", g],
            ["parse", g, m],
            ["parse", g, m, "--minimal"],
            ["wf", g, m, "--cc", flags["--cc"]],
            ["fm-check", fd, conf],
            ["generate", fd, conf, "--out", str(work / "out")],
        ]
        extra = len({s for s in flags["--extra-classes"].split(",") if s})
        if _class_names(languages) + extra <= 5:
            commands += [
                ["sem", g, m, fd, conf, *bounds, "--witnesses", flags["--witnesses"]],
                ["analyze", flags["analyze"], g, m, path["m01.txt"], fd, conf, *bounds],
                ["analyze", "consistent", g, m, path["g1.mclang"], path["m10.txt"], fd, conf, *bounds],
            ]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            if code and err.getvalue():
                assert err.getvalue().startswith(_FIRST_LINES), (argv, err.getvalue())
