from __future__ import annotations

import pytest

from vlang.grammar import (
    Group,
    GrammarError,
    NonterminalRef,
    StereotypeSlot,
    Terminal,
    TerminalSynonyms,
    parse_grammar,
)
from vlang.lexer import SourceError, scan

# A terser spelling of the minimal class-diagram grammar: multi-line
# production, unlabeled star reference, no ';' terminator on class entries,
# and a shorter root-production name.
VARIANT_TEXT = """\
grammar CDSimp {
    CDefinition = "classdiagram" Name:IDENT "{" (CDCClass)* "}";

    CDCClass =
        "class" Name:IDENT ("extends" scl:IDENT ("," scl:IDENT)*)?;
}
"""


def test_parses_a_terser_grammar_spelling():
    g = parse_grammar(VARIANT_TEXT)
    assert g.name == "CDSimp"
    assert [p.name for p in g.productions] == ["CDefinition", "CDCClass"]
    assert g.start_production == "CDefinition"


def test_element_structure_of_class_production():
    g = parse_grammar(VARIANT_TEXT)
    p = g.production("CDCClass")
    assert p.elements[0] == Terminal("class")
    assert p.elements[1] == NonterminalRef("Name", "IDENT")
    opt = p.elements[2]
    assert isinstance(opt, Group) and opt.cardinality == "optional"
    assert opt.elements[0] == Terminal("extends")
    assert opt.elements[1] == NonterminalRef("scl", "IDENT")
    star = opt.elements[2]
    assert isinstance(star, Group) and star.cardinality == "star"


def test_empty_grammar_is_rejected():
    with pytest.raises(GrammarError, match="no productions"):
        parse_grammar("grammar X { }")


def test_unresolved_nonterminal_is_named():
    with pytest.raises(GrammarError, match="Foo"):
        parse_grammar('grammar X { A = "a" b:Foo; }')


def test_duplicate_production_name():
    with pytest.raises(GrammarError, match="duplicate production name A"):
        parse_grammar('grammar X { A = "a"; A = "b"; }')


def test_synonym_group():
    g = parse_grammar('grammar X { A = ("extends" | "ext") x:IDENT; }')
    syn = g.production("A").elements[0]
    assert syn == TerminalSynonyms("extends", ("ext",))
    assert syn.all_spellings() == ("extends", "ext")


def test_synonym_alternatives_must_be_distinct():
    with pytest.raises(GrammarError, match="distinct"):
        parse_grammar('grammar X { A = ("a" | "a") x:IDENT; }')


def test_alternation_among_nonterminals_is_rejected():
    with pytest.raises(GrammarError, match="only permitted among terminals"):
        parse_grammar('grammar X { A = (x:IDENT | y:IDENT); }')


def test_cardinality_not_allowed_on_terminals():
    with pytest.raises(GrammarError, match="not permitted"):
        parse_grammar('grammar X { A = "a"* x:IDENT; }')


def test_ident_reference_must_be_labeled():
    with pytest.raises(GrammarError, match="must carry a label"):
        parse_grammar("grammar X { A = IDENT; }")


def test_sugar_production_records_its_base():
    g = parse_grammar(
        'grammar X { A = "a" x:IDENT; sugar B for A = "b" names:IDENT; }'
    )
    assert g.production("B").sugar_for == "A"
    assert g.alternatives == {"A": ("A", "B"), "B": ("B",)}
    assert g.sugar_bases() == {"B": "A"}


def test_sugar_alternatives_follow_the_declaration_order():
    g = parse_grammar(
        'grammar X { S = (a:A)*; sugar C for A = "c"; A = "a"; sugar B for A = "b"; }'
    )
    assert g.alternatives["A"] == ("A", "C", "B")


def test_sugar_base_must_exist():
    with pytest.raises(GrammarError, match="undefined production"):
        parse_grammar('grammar X { sugar B for A = "b" x:IDENT; }')


def test_sugar_may_not_chain():
    with pytest.raises(GrammarError, match="another sugar"):
        parse_grammar(
            'grammar X { A = "a"; sugar B for A = "b"; sugar C for B = "c"; }'
        )


@pytest.mark.parametrize("source, cycle", [
    ('grammar G { A = A "x"; }', "A -> A"),
    ("grammar G { A = B; B = A; }", "A -> B -> A"),
    ('grammar G { S = "s" T; T = (U)* <<?>> V; U = "u"; V = (W)? T; W = "w"; }', "T -> V -> T"),
    ('grammar G { A = B; B = "b"; sugar C for B = A "c"; }', "A -> C -> A"),
    ('grammar G { S = "s" A; A = B A "x"; B = C; C = (y:IDENT)?; }', "A -> A"),
])
def test_left_recursion_is_rejected_naming_the_cycle(source, cycle):
    with pytest.raises(GrammarError, match=f"^left recursion: {cycle}$"):
        parse_grammar(source)


@pytest.mark.parametrize("source", [
    'grammar N { A = "a" (A)?; }',
    "grammar L { S = x:IDENT (S)*; }",
    'grammar G { A = (B)? "a" (A)?; B = "b"; }',
    'grammar G { A = "a" A; sugar B for A = "b"; }',
])
def test_recursion_after_a_token_is_accepted(source):
    parse_grammar(source)


@pytest.mark.parametrize("source, barren", [
    ('grammar G { A = "a" A; }', "A"),
    ('grammar G { B = "b" C; C = "c" B; }', "B, C"),
    ('grammar G { S = "s" (xs:X)*; X = "x" X; }', "X"),
    ('grammar G { A = (B)? "a" A; B = "b"; }', "A"),
    ('grammar G { S = "s" A; A = "a" A; sugar B for A = "b" A; }', "S, A, B"),
])
def test_productions_without_a_finite_model_are_rejected(source, barren):
    with pytest.raises(GrammarError, match=f"^no finite model derives from {barren}$"):
        parse_grammar(source)


@pytest.mark.parametrize("source, terminal", [
    ('grammar G { A = "" "a"; }', "''"),
    ('grammar G { A = "x-y"; }', "'x-y'"),
    ('grammar G { A = "a b"; }', "'a b'"),
    ('grammar G { A = "//" x:IDENT; }', "'//'"),
    ('grammar G { A = ("to" | "x-y") x:IDENT; }', "'x-y'"),
    # Blanks separate model tokens, so a spelling of blanks alone is none,
    # and neither is one that ends in a blank.
    ('grammar G { A = " " x:IDENT; }', "' '"),
    ('grammar G { A = "\t" x:IDENT; }', r"'\\t'"),
    ('grammar G { A = "- " x:IDENT; }', "'- '"),
])
def test_terminals_must_scan_as_one_model_token(source, terminal):
    with pytest.raises(GrammarError, match=f"^terminal {terminal} does not scan as one model token$"):
        parse_grammar(source)


def test_conflicting_field_types_rejected():
    with pytest.raises(GrammarError, match="conflicting types"):
        parse_grammar('grammar X { A = "a"; B = x:IDENT x:A; }')


def test_stereotype_slot_parses():
    g = parse_grammar('grammar X { A = <<?>> "a" x:IDENT; }')
    assert isinstance(g.production("A").elements[0], StereotypeSlot)
    assert scan("<<s>>", g.model_pattern, SourceError).texts == ["<<", "s", ">>", ""]


def test_stereotype_slot_not_allowed_inside_groups():
    with pytest.raises(GrammarError, match="stereotype slot"):
        parse_grammar('grammar X { A = (<<?>> "a")? x:IDENT; }')


def test_syntax_error_carries_position():
    with pytest.raises(GrammarError) as exc:
        parse_grammar('grammar X {\n  A = "a" }')
    assert exc.value.line == 2


def test_terminal_texts_and_slots():
    g = parse_grammar(VARIANT_TEXT)
    assert g.keywords == frozenset({"classdiagram", "class", "extends"})
    assert scan("{},", g.model_pattern, SourceError).texts == ["{", "}", ",", ""]
    with pytest.raises(SourceError, match="illegal character '<'"):
        scan("<<s>>", g.model_pattern, SourceError)
