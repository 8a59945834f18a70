from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_desugar
from vlang import bundled
from vlang.desugar import DesugarError, desugar_to_minimal
from vlang.grammar import parse_grammar
from vlang.modelparse import ModelParseError, TokenizeError, parse_model
from vlang.schema import dump_ast


def test_class_list_expands_to_plain_classes(cd):
    sugared = desugar_to_minimal(
        parse_model(cd, "classdiagram D { classes A, B; }"), cd
    )
    expanded = desugar_to_minimal(
        parse_model(cd, "classdiagram D { class A; class B; }"), cd
    )
    assert sugared == expanded
    assert dump_ast(sugared) == dump_ast(expanded)


def test_expansion_preserves_declaration_order(cd):
    node = desugar_to_minimal(
        parse_model(cd, "classdiagram D { class X; classes A, B; class Y; }"), cd
    )
    assert [c.fields["Name"] for c in node.fields["classes"]] == ["X", "A", "B", "Y"]
    assert all(c.datatype == "CDCClass" for c in node.fields["classes"])


def test_expanded_classes_have_empty_supers_and_stereotypes(cd):
    node = desugar_to_minimal(parse_model(cd, "classdiagram D { classes A, B; }"), cd)
    for c in node.fields["classes"]:
        assert c.fields["scl"] == []
        assert c.fields["stereotypes"] == frozenset()


def test_already_minimal_ast_is_unchanged(cd):
    node = parse_model(cd, "classdiagram D { class A ext B; class B; }")
    assert desugar_to_minimal(node, cd) == node


def test_idempotence(cd):
    node = parse_model(
        cd, "classdiagram D { classes A, B; <<singleton>> class C extends A; }"
    )
    once = desugar_to_minimal(node, cd)
    assert desugar_to_minimal(once, cd) == once


def test_minimal_grammar_needs_no_expanders(cdsimp):
    node = parse_model(cdsimp, "classdiagram D { class A; }")
    assert desugar_to_minimal(node, cdsimp) == node


def test_unregistered_sugar_is_an_error():
    g = parse_grammar(
        'grammar Fresh { A = "a" (items:B)*; B = "b" x:IDENT ";"; '
        'sugar C for B = "c" y:IDENT ";"; }'
    )
    node = parse_model(g, "a c one ;")
    with pytest.raises(DesugarError, match="no expander registered"):
        desugar_to_minimal(node, g)


def test_desugaring_shares_what_it_does_not_rewrite(cd, cdsimp):
    node = parse_model(cd, "classdiagram D { class A ext B; classes B, C; <<s>> class E; }")
    before = dump_ast(node)
    minimal = desugar_to_minimal(node, cd)
    assert dump_ast(node) == before
    a, _, _, e = minimal.fields["classes"]
    assert a is node.fields["classes"][0] and e is node.fields["classes"][2]
    plain = parse_model(cdsimp, "classdiagram D { class A extends B; }")
    assert desugar_to_minimal(plain, cdsimp) is plain


# Grammars the comparison with the former desugarer parses its models with:
# the bundled ones, `scl` as an option field, a single-node field that sugar
# may fill ("main"), sugar at the root (the first production starts a
# model), a language with no expander, and an expander that finds no
# `names` field.
_SUGAR = '    sugar CDCClasses for CDCClass = "classes" names:IDENT ("," names:IDENT)* ";";\n'
GRAMMARS = {
    name: parse_grammar(text)
    for name, text in {
        "CD": bundled.CD_GRAMMAR_TEXT,
        "CDSimp": bundled.CDSIMP_GRAMMAR_TEXT,
        "option scl": bundled.CD_GRAMMAR_TEXT.replace('scl:IDENT ("," scl:IDENT)*', "scl:IDENT"),
        "single-node field": bundled.CD_GRAMMAR_TEXT.replace(
            '(classes:CDCClass)* "}"', '(classes:CDCClass)* ("main" main:CDCClass)? "}"'
        ),
        "sugar at the root": bundled.CD_GRAMMAR_TEXT.replace(_SUGAR, "").replace("{\n", "{\n" + _SUGAR, 1),
        "no expander": bundled.CD_GRAMMAR_TEXT.replace("grammar CD", "grammar Other"),
        "no names field": bundled.CD_GRAMMAR_TEXT.replace("names:", "ns:"),
    }.items()
}


@st.composite
def _statements(draw):
    names = st.sampled_from(["A", "B", "C"])

    def statement():
        if draw(st.integers(0, 2)) == 0:
            return f"classes {', '.join(draw(st.lists(names, min_size=1, max_size=3)))};"
        stereotypes = "".join(f"<<{s}>> " for s in draw(st.lists(st.sampled_from(["singleton", "s"]), max_size=2)))
        supers = draw(st.lists(names, max_size=2))
        extends = f" {draw(st.sampled_from(['extends', 'ext']))} {', '.join(supers)}" if supers else ""
        return f"{stereotypes}class {draw(names)}{extends};"

    return [statement() for _ in range(draw(st.integers(1, 5)))], draw(st.booleans())


def _outcome(desugar, node, grammar):
    try:
        return dump_ast(desugar(node, grammar))
    except DesugarError as exc:
        return type(exc), str(exc)


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(_statements())
def test_desugaring_equals_the_former_desugarer(case):
    # Each grammar parses what it can of the model; every parse desugars as
    # the desugarer that copied every node desugars it, or fails with the
    # same error, and keeps its own dump.
    statements, main = case
    body = " ".join(statements[:-1]) + (" main " if main else " ") + statements[-1]
    for name, grammar in GRAMMARS.items():
        text = statements[0] if name == "sugar at the root" else f"classdiagram D {{ {body} }}"
        try:
            node = parse_model(grammar, text)
        except (TokenizeError, ModelParseError):
            continue
        before = dump_ast(node)
        assert _outcome(desugar_to_minimal, node, grammar) == _outcome(oracle_desugar, node, grammar), (name, text)
        assert dump_ast(node) == before, (name, text)
