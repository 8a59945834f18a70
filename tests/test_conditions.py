from __future__ import annotations

import pytest

from vlang.conditions import CONDITIONS, UnknownConditionError, check_context_conditions
from vlang.desugar import desugar_to_minimal
from vlang.modelparse import parse_model

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
