"""Context conditions over minimal ASTs, and the positions their violations
report.  The parser computes a node's position only when it is first read;
a violation must report the position the grammar interpreter and the
desugarer that copied every node give (`oracles.oracle_parse_model`,
`oracles.oracle_desugar`), which compute every position as they go."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_desugar, oracle_parse_model
from vlang import bundled
from vlang.conditions import CONDITIONS, UnknownConditionError, check_context_conditions
from vlang.desugar import desugar_to_minimal
from vlang.grammar import parse_grammar
from vlang.modelparse import ModelParseError, TokenizeError, parse_model

CD = parse_grammar(bundled.CD_GRAMMAR_TEXT)
CDSIMP = parse_grammar(bundled.CDSIMP_GRAMMAR_TEXT)

ALL_CC = (
    "CC-unique-class-names",
    "CC-supers-declared",
    "CC-single-inheritance-syntactic",
)


def _minimal(grammar, text):
    return desugar_to_minimal(parse_model(grammar, text), grammar)


def test_bundled_conditions_registered_for_both_grammars():
    for language in ("CD", "CDSimp"):
        registry = CONDITIONS[language]
        assert set(registry) == set(ALL_CC)
        assert not registry["CC-unique-class-names"].optional
        assert registry["CC-supers-declared"].optional
        assert registry["CC-single-inheritance-syntactic"].optional


def test_duplicate_class_name_reported_once(cdsimp):
    node = _minimal(cdsimp, "classdiagram D { class A; class A; }")
    violations = check_context_conditions(node, ["CC-unique-class-names"], "CDSimp")
    assert len(violations) == 1
    assert "A" in violations[0].message


def test_multiple_inheritance_fires_single_inheritance_condition(cdsimp):
    node = _minimal(cdsimp, "classdiagram D { class A extends B, C; class B; class C; }")
    violations = check_context_conditions(
        node, ["CC-single-inheritance-syntactic"], "CDSimp"
    )
    assert len(violations) == 1
    assert "A" in violations[0].message


def test_undeclared_super_reported(cdsimp):
    node = _minimal(cdsimp, "classdiagram D { class A extends B; }")
    violations = check_context_conditions(node, ["CC-supers-declared"], "CDSimp")
    assert len(violations) == 1
    assert "B" in violations[0].message


def test_well_formed_diagram_has_no_violations(cdsimp):
    node = _minimal(cdsimp, "classdiagram D { class A extends B; class B; }")
    assert check_context_conditions(node, ALL_CC, "CDSimp") == []


def test_unknown_condition_id_raises(cdsimp):
    node = _minimal(cdsimp, "classdiagram D { }")
    with pytest.raises(UnknownConditionError, match="CC-nope"):
        check_context_conditions(node, ["CC-nope"], "CDSimp")


def test_violations_ordered_by_condition_then_position(cdsimp):
    node = _minimal(
        cdsimp,
        "classdiagram D {\n"
        "  class A extends X, Y;\n"
        "  class A;\n"
        "  class B extends P, Q;\n"
        "}",
    )
    violations = check_context_conditions(node, ALL_CC, "CDSimp")
    keys = [(v.condition_id, v.line, v.col) for v in violations]
    assert keys == sorted(keys)
    ids = [v.condition_id for v in violations]
    assert ids == sorted(ids)
    # two multi-super classes, four undeclared supers, one duplicate
    assert ids.count("CC-single-inheritance-syntactic") == 2
    assert ids.count("CC-supers-declared") == 4
    assert ids.count("CC-unique-class-names") == 1


def test_sugar_classes_checked_after_desugaring(cd):
    node = _minimal(cd, "classdiagram D { classes A, B; class A; }")
    violations = check_context_conditions(node, ["CC-unique-class-names"], "CD")
    assert len(violations) == 1


def test_render_format(cdsimp):
    node = _minimal(cdsimp, "classdiagram D { class A; class A; }")
    (violation,) = check_context_conditions(node, ["CC-unique-class-names"], "CDSimp")
    assert violation.render().startswith(
        f"CC CC-unique-class-names {violation.line}:{violation.col} "
    )


def _violations(parse, desugar, grammar, text):
    """Every violation of all three conditions, or the parse error in full."""
    try:
        node = desugar(parse(grammar, text), grammar)
    except (TokenizeError, ModelParseError) as exc:
        return type(exc), str(exc), exc.line, exc.col
    return check_context_conditions(node, ALL_CC, grammar.name)


def _same_as_the_oracle(grammar, text):
    violations = _violations(parse_model, desugar_to_minimal, grammar, text)
    assert violations == _violations(oracle_parse_model, oracle_desugar, grammar, text), text
    return violations


@st.composite
def _models(draw, sugar: bool):
    """A class diagram with duplicate names, undeclared and multiple supers
    and, with `sugar`, `classes` lines and stereotypes, its tokens apart by
    blanks, line breaks and comments; it may end in a comment."""
    names = st.sampled_from(["A", "B", "C", "D"])
    tokens = ["classdiagram", "D", "{"]
    for _ in range(draw(st.integers(0, 6))):
        if sugar and draw(st.integers(0, 3)) == 0:
            listed = draw(st.lists(names, min_size=1, max_size=3))
            tokens += ["classes", *" , ".join(listed).split(), ";"]
            continue
        if sugar:
            tokens += [f"<<{s}>>" for s in draw(st.lists(st.sampled_from(["s", "t"]), max_size=2))]
        tokens += ["class", draw(names)]
        supers = draw(st.lists(names, max_size=3))
        if supers:
            tokens += [draw(st.sampled_from(["extends", "ext"] if sugar else ["extends"]))]
            tokens += " , ".join(supers).split()
        tokens.append(";")
    tokens.append("}")
    gaps = st.sampled_from([" ", " ", "\n", "\t", "\r\n", "\n  ", " // note\n", "\n// line\n"])
    text = "".join(token + draw(gaps) for token in tokens)
    return text + draw(st.sampled_from(["", "\n", "// end", "\n// end", "// end\n"]))


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(_models(sugar=True))
def test_cd_violations_report_the_oracle_positions(text):
    _same_as_the_oracle(CD, text)


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(_models(sugar=False))
def test_cdsimp_violations_report_the_oracle_positions(text):
    _same_as_the_oracle(CDSIMP, text)


@pytest.mark.parametrize("language, text, expected", [
    # A violating class after a comment line.
    ("CDSimp", "classdiagram D {\n// note\n  class A extends B, A;\n}", [
        ("CC-single-inheritance-syntactic", 3, 3, "class A has 2 super-classes"),
        ("CC-supers-declared", 3, 3, "class A extends undeclared class B"),
    ]),
    # A model whose last line is a comment.
    ("CD", "classdiagram D {\n  class A;\n\tclass A;\n}\n// end", [
        ("CC-unique-class-names", 3, 2, "duplicate class name A"),
    ]),
    # Expanded classes carry the position of their `classes` line.
    ("CD", "classdiagram D {\n  class B ext C;\n  // two\n  classes A, B, A;\n}\n", [
        ("CC-supers-declared", 2, 3, "class B extends undeclared class C"),
        ("CC-unique-class-names", 4, 3, "duplicate class name A"),
        ("CC-unique-class-names", 4, 3, "duplicate class name B"),
    ]),
])
def test_violation_positions(language, text, expected):
    grammar = {"CD": CD, "CDSimp": CDSIMP}[language]
    assert _same_as_the_oracle(grammar, text) == expected
