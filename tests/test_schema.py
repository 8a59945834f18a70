from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden
from oracles import conformance_violations, conforms, oracle_dump_ast
from vlang import bundled
from vlang.grammar import GrammarError, parse_grammar
from vlang.modelparse import parse_model
from vlang.schema import AstNode, dump_ast, dump_schema


def _datatypes(schema):
    return {dt.name: dt for dt in schema.datatypes}


def _fields(schema, name):
    return {f.label: (f.target, f.card) for f in _datatypes(schema)[name].fields}


def test_two_datatype_schema(cdsimp):
    schema = cdsimp.schema
    assert [dt.name for dt in schema.datatypes] == ["CDDefinition", "CDCClass"]
    assert _fields(schema, "CDDefinition") == {
        "Name": ("IDENT", ""),
        "CDCClass": ("CDCClass", "list"),
    }
    assert _fields(schema, "CDCClass") == {"Name": ("IDENT", ""), "scl": ("IDENT", "list")}


def test_full_class_diagram_schema(cd):
    schema = cd.schema
    assert _fields(schema, "CDDefinition") == {
        "Name": ("IDENT", ""),
        "classes": ("CDCClass", "list"),
    }
    assert _fields(schema, "CDCClass") == {
        "stereotypes": ("IDENT", "set"),
        "Name": ("IDENT", ""),
        "scl": ("IDENT", "list"),
    }
    assert _fields(schema, "CDCClasses") == {"names": ("IDENT", "list")}
    assert _datatypes(schema)["CDCClasses"].sugar_for == "CDCClass"


def test_optional_single_reference_becomes_option():
    g = parse_grammar('grammar G { A = x:IDENT ("opt" y:IDENT)?; }')
    assert _fields(g.schema, "A") == {"x": ("IDENT", ""), "y": ("IDENT", "option")}


def test_terminal_only_production_has_no_fields():
    g = parse_grammar('grammar G { A = "only" "terminals"; }')
    assert _datatypes(g.schema)["A"].fields == ()


@pytest.mark.parametrize("grammar, name", [
    ("cdsimp", "cdsimp_schema.txt"),
    ("cd", "cd_schema.txt"),
    ("cdassert", "cdassert_schema.txt"),
], ids=["CDSimp", "CD", "CDAssert"])
def test_schema_dump_matches_golden(request, grammar, name):
    assert dump_schema(request.getfixturevalue(grammar).schema) == golden(name)


def test_schema_dump_of_every_field_kind():
    g = parse_grammar('grammar G { A = x:B (y:IDENT)? (zs:B)* ("o" o:B)?; B = "b"; }')
    assert dump_schema(g.schema) == (
        "theory GAS imports GeneralAS\nbegin\ndatatype B = B\n"
        'datatype A = A B "IDENT option" "B list" "B option"\nend\n'
    )


@pytest.mark.parametrize("grammar_text, message", [
    ('grammar S { A = <<?>> "a" stereotypes:IDENT; }',
     "field stereotypes of A is used with conflicting types"),
    ('grammar S { A = stereotypes:IDENT <<?>> "a"; }',
     "production A: a stereotype slot must appear exactly once, outside groups"),
], ids=["label-after-slot", "label-before-slot"])
def test_a_stereotype_slot_owns_its_field(grammar_text, message):
    with pytest.raises(GrammarError) as exc:
        parse_grammar(grammar_text)
    assert str(exc.value) == message


def test_schema_dump_is_deterministic(cd):
    assert dump_schema(cd.schema) == dump_schema(parse_grammar(bundled.CD_GRAMMAR_TEXT).schema)


def test_schema_dump_orders_dependencies_first(cd):
    text = dump_schema(cd.schema)
    lines = [l for l in text.splitlines() if l.startswith("datatype")]
    assert lines.index("datatype CDCClass = CDCClass \"IDENT set\" IDENT \"IDENT list\"") < lines.index(
        "datatype CDDefinition = CDDefinition IDENT \"CDCClass list\""
    )


def test_option_field_rendering(cdassert):
    text = dump_schema(cdassert.schema)
    assert 'datatype SubAssertion = SubAssertion "Negation option" IDENT IDENT' in text
    assert "datatype Negation = Negation\n" in text


def test_parse_results_conform(cdsimp):
    schema = cdsimp.schema
    node = parse_model(cdsimp, "classdiagram D { class A extends B; class B; }")
    assert conforms(node, schema)


def test_sugar_nodes_conform_before_desugaring(cd):
    schema = cd.schema
    node = parse_model(cd, "classdiagram D { classes A, B; }")
    assert conforms(node, schema)


def test_conformance_detects_missing_field(cdsimp):
    schema = cdsimp.schema
    bad = AstNode("CDCClass", {"Name": "A"})
    assert any("missing field scl" in p for p in conformance_violations(bad, schema))


def test_conformance_detects_wrong_kinds(cdsimp):
    schema = cdsimp.schema
    bad = AstNode("CDCClass", {"Name": "A", "scl": "B"})
    assert any("expected list" in p for p in conformance_violations(bad, schema))
    unknown = AstNode("Nope", {})
    assert any("unknown datatype" in p for p in conformance_violations(unknown, schema))


def test_ast_dump_is_position_independent(cdsimp):
    a = parse_model(cdsimp, "classdiagram D { class A; }")
    b = parse_model(cdsimp, "classdiagram   D {\n\n  class A; }")
    assert a == b
    assert dump_ast(a) == dump_ast(b)


def test_ast_dump_format(cdsimp):
    node = parse_model(cdsimp, "classdiagram D { class A extends B; class B; }")
    assert dump_ast(node) == (
        "(CDDefinition CDCClass=[(CDCClass Name=A scl=[B]),"
        "(CDCClass Name=B scl=[])] Name=D)"
    )


def test_absent_option_renders_as_dash(cdassert):
    node = parse_model(cdassert, "assertions S { sub A B; no sub B A; }")
    assert dump_ast(node) == (
        "(AssertionDoc Name=S assertions=[(SubAssertion left=A neg=- right=B),"
        "(SubAssertion left=B neg=(Negation) right=A)])"
    )


@pytest.mark.parametrize("node, problems", [
    (AstNode("CDCClass", {"stereotypes": ["x"], "Name": 1, "scl": "B"}), [
        "CDCClass.stereotypes: expected a set of stereotype names",
        "CDCClass.Name: expected identifier, got int",
        "CDCClass.scl: expected list, got str",
    ]),
    (AstNode("CDCClass", {"stereotypes": frozenset(), "Name": "A", "scl": [1], "extra": "e"}), [
        "CDCClass: unexpected field extra",
        "CDCClass.scl[0]: expected identifier, got int",
    ]),
    (AstNode("CDDefinition", {"Name": "D", "classes": [
        AstNode("CDCClasses", {"names": ["A"]}),
        "B",
        AstNode("CDDefinition", {"Name": "E", "classes": []}),
    ]}), [
        "CDDefinition.classes[1]: expected CDCClass node, got str",
        "CDDefinition.classes[2]: expected CDCClass node, got CDDefinition",
    ]),
], ids=["wrong-kinds", "extra-field-and-list-item", "list-of-nodes"])
def test_exact_conformance_violations(cd, node, problems):
    assert conformance_violations(node, cd.schema) == problems


@pytest.mark.parametrize("neg, problems", [
    ("no", ["SubAssertion.neg: expected Negation node, got str"]),
    (None, []),
], ids=["str", "absent"])
def test_exact_conformance_violations_of_an_option(cdassert, neg, problems):
    node = AstNode("SubAssertion", {"neg": neg, "left": "A", "right": "B"})
    assert conformance_violations(node, cdassert.schema) == problems


# AST values of every kind a dump renders, nested: IDENTs, absent options,
# nodes, lists and stereotype sets; now and then a value that is not one.
_LABELS = st.sampled_from(["Name", "scl", "b", "a", "stereotypes", "classes"])
_IDENTS = st.sampled_from(["A", "B", "c1", "x_y"])
_VALUES = st.recursive(
    st.one_of(
        _IDENTS,
        st.none(),
        st.frozensets(_IDENTS, max_size=3),
        st.sets(_IDENTS, max_size=3),
        st.just(0),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.builds(
            AstNode,
            st.sampled_from(["D", "C", "CDCClass"]),
            st.dictionaries(_LABELS, inner, max_size=4),
        ),
    ),
    max_leaves=25,
)


@settings(deadline=None, derandomize=True)
@given(st.builds(AstNode, st.sampled_from(["D", "C"]), st.dictionaries(_LABELS, _VALUES, max_size=4)))
def test_dump_ast_equals_its_former_body(node):
    # Byte for byte, or the same refusal of a value that is not an AST's.
    def outcome(dump):
        try:
            return dump(node)
        except TypeError as exc:
            return str(exc)

    assert outcome(dump_ast) == outcome(oracle_dump_ast)
