from __future__ import annotations

import warnings

import pytest

from conftest import raw_semantics_config
from test_sysmodel import oracle_enumerate
from vlang.analysis import check_consistency
from vlang.desugar import desugar_to_minimal
from vlang.modelparse import parse_model
from vlang.semantics import (
    SemanticsError,
    UnboundMappingError,
    UnknownStereotypeWarning,
    compute_sem,
    demands_of,
    make_semantics_config,
    map_assertions,
    map_class,
    map_diagram,
    map_super_delegate,
    map_super_direct,
    super_mapping_for,
    valid_predicate,
)
from vlang.features import Configuration, InvalidConfigurationError, validated_merge
from vlang.sysmodel import Bounds, canonical_key, composed_valid, make_system

REFL2 = {("A", "A"), ("B", "B")}


def _cd(grammar, text):
    return desugar_to_minimal(parse_model(grammar, text), grammar)


def _config(example_diagrams, domain=frozenset(), mapping=frozenset({"MapSuperCDelegate"}),
            bounds=Bounds()):
    return raw_semantics_config(example_diagrams, set(domain), set(mapping), bounds)


# ---------------------------------------------------------------------------
# Super-class mapping variants
# ---------------------------------------------------------------------------

def test_direct_holds_when_all_pairs_present():
    sm = make_system({"A", "B"}, REFL2 | {("A", "B")})
    assert map_super_direct("A", ["B"])(sm)


def test_direct_with_no_supers_is_trivially_true():
    sm = make_system({"A"}, {("A", "A")})
    assert map_super_direct("A", [])(sm)


def test_direct_fails_on_missing_pair():
    sm = make_system({"A", "B", "C"}, REFL2 | {("C", "C"), ("A", "B")})
    assert not map_super_direct("A", ["B", "C"])(sm)


def test_delegate_uses_attribute_for_second_super():
    sm = make_system(
        {"A", "B", "C"},
        REFL2 | {("C", "C"), ("A", "B")},
        {("A", "dlg_C", "C")},
    )
    assert map_super_delegate("A", ["B", "C"])(sm)


def test_delegate_single_super_needs_no_attribute():
    sm = make_system({"A", "B"}, REFL2 | {("A", "B")})
    assert map_super_delegate("A", ["B"])(sm)


def test_delegate_fails_without_attribute():
    sm = make_system(
        {"A", "B", "C"},
        REFL2 | {("C", "C"), ("A", "B"), ("A", "C")},
    )
    assert not map_super_delegate("A", ["B", "C"])(sm)


# ---------------------------------------------------------------------------
# Class and diagram mapping
# ---------------------------------------------------------------------------

def test_bare_class_needs_only_existence(cdsimp):
    m = _cd(cdsimp, "classdiagram D { class A; }")
    sm = make_system({"A"}, {("A", "A")})
    assert map_class(m.fields["CDCClass"][0], map_super_direct)(sm)


def test_singleton_limits_population(cd):
    m = _cd(cd, "classdiagram D { <<singleton>> class A; }")
    cls = map_class(m.fields["classes"][0], map_super_direct)
    crowded = make_system(
        {"A"}, {("A", "A")}, objects={"o1", "o2"},
        class_of={("o1", "A"), ("o2", "A")},
    )
    assert not cls(crowded)
    lone = make_system(
        {"A"}, {("A", "A")}, objects={"o1"}, class_of={("o1", "A")}
    )
    assert cls(lone)


def test_missing_class_fails(cdsimp):
    m = _cd(cdsimp, "classdiagram D { class A; }")
    sm = make_system({"B"}, {("B", "B")})
    assert not map_class(m.fields["CDCClass"][0], map_super_direct)(sm)


def test_unknown_stereotype_warns_and_is_ignored(cd):
    m = _cd(cd, "classdiagram D { <<fancy>> class A; }")
    sm = make_system({"A"}, {("A", "A")})
    with pytest.warns(UnknownStereotypeWarning, match="fancy"):
        assert map_class(m.fields["classes"][0], map_super_direct)(sm)


def test_diagram_is_conjunction_of_classes(cdsimp):
    m = map_diagram(
        _cd(cdsimp, "classdiagram D { class A extends B; class B; }"), map_super_direct
    )
    good = make_system({"A", "B"}, REFL2 | {("A", "B")})
    assert m(good)
    missing = make_system({"A", "B"}, REFL2)
    assert not m(missing)


def test_empty_diagram_accepts_any_system(cdsimp):
    m = map_diagram(_cd(cdsimp, "classdiagram D { }"), map_super_direct)
    assert m(make_system())
    assert m(make_system({"X"}, {("X", "X")}))


def test_loose_semantics_ignores_extra_material(cdsimp):
    m = map_diagram(_cd(cdsimp, "classdiagram D { class A; }"), map_super_direct)
    bigger = make_system(
        {"A", "Z"},
        {("A", "A"), ("Z", "Z"), ("Z", "A")},
        objects={"o1"},
        class_of={("o1", "Z")},
    )
    assert m(bigger)


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

def test_positive_assertion(cdassert):
    doc = map_assertions(_cd(cdassert, "assertions S { sub A B; }"))
    assert doc(make_system({"A", "B"}, REFL2 | {("A", "B")}))
    assert not doc(make_system({"A", "B"}, REFL2))


def test_empty_assertion_document(cdassert):
    doc = map_assertions(_cd(cdassert, "assertions S { }"))
    assert doc(make_system())


def test_negative_assertion(cdassert):
    doc = map_assertions(_cd(cdassert, "assertions S { no sub A B; }"))
    assert not doc(make_system({"A", "B"}, REFL2 | {("A", "B")}))
    assert doc(make_system({"A", "B"}, REFL2))


# ---------------------------------------------------------------------------
# Mentioned names and delegate demands
# ---------------------------------------------------------------------------

def test_mentioned_names_include_supers(cdsimp):
    m = _cd(cdsimp, "classdiagram D { class A extends B; }")
    assert map_diagram(m, map_super_direct).classes == frozenset({"A", "B"})


def test_mentioned_names_of_assertions(cdassert):
    doc = _cd(cdassert, "assertions S { sub A B; no sub C A; }")
    assert map_assertions(doc).classes == frozenset({"A", "B", "C"})


def test_delegate_demands(cdsimp):
    m = _cd(cdsimp, "classdiagram D { class D extends B, C; class B; class C; }")
    assert map_diagram(m, map_super_delegate).attrs == frozenset({("D", "dlg_C", "C")})


def test_auto_candidates_depend_on_selected_variant(cdsimp, example_diagrams):
    m = _cd(cdsimp, "classdiagram D { class D extends B, C; class B; class C; }")
    delegate = _config(example_diagrams, mapping={"MapSuperCDelegate"})
    direct = _config(example_diagrams, mapping={"MapSuperCDirect"})
    assert compute_sem(m, delegate).bounds.attr_candidates == frozenset({("D", "dlg_C", "C")})
    assert compute_sem(m, direct).bounds.attr_candidates == frozenset()


# ---------------------------------------------------------------------------
# Configured semantics sets
# ---------------------------------------------------------------------------

def test_two_bare_classes_have_four_member_semantics(cdsimp, example_diagrams):
    m = _cd(cdsimp, "classdiagram D { class A; class B; }")
    sem = compute_sem(m, _config(example_diagrams))
    assert sem.count() == 4


def test_extends_halves_the_semantics(cdsimp, example_diagrams):
    m = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    sem = compute_sem(m, _config(example_diagrams, mapping={"MapSuperCDirect"}))
    members = list(sem)
    assert len(members) == 2
    assert all(("A", "B") in set(sm.sub) for sm in members)


def test_diamond_discriminates_variants(cdsimp, example_diagrams):
    diamond = _cd(
        cdsimp,
        "classdiagram M { class D extends B, C; class B extends A; "
        "class C extends A; class A; }",
    )
    si = {"SingleInheritance"}
    direct_sem = compute_sem(diamond, _config(example_diagrams, domain=si,
                                              mapping={"MapSuperCDirect"}))
    delegate_sem = compute_sem(diamond, _config(example_diagrams, domain=si))
    direct_members = set(direct_sem)
    witness = delegate_sem.first(1)[0]
    assert witness not in direct_members  # the sets differ on the diamond
    assert delegate_sem.contains(witness)
    # every direct member relates B and C, the delegate witness does not
    assert all(
        ("B", "C") in set(sm.sub) or ("C", "B") in set(sm.sub)
        for sm in direct_members
    )
    assert ("B", "C") not in set(witness.sub) and ("C", "B") not in set(witness.sub)


def test_members_satisfy_validity_and_mapping(cdsimp, example_diagrams):
    m = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    config = _config(example_diagrams, domain={"SingleInheritance"})
    sem = compute_sem(m, config)
    valid = composed_valid({"SingleInheritance"})
    members = list(sem)
    assert members
    for sm in members:
        assert valid(sm)
        assert sem.contains(sm)


def test_anti_monotonicity(cdsimp, example_diagrams):
    weak = _cd(cdsimp, "classdiagram D { class A; class B; }")
    strong = _cd(cdsimp, "classdiagram D { class A extends B; class B; class C; }")
    config = _config(example_diagrams, mapping={"MapSuperCDirect"},
                     bounds=Bounds(extra_class_names=("C",)))
    weak_members = set(compute_sem(weak, config))
    # evaluate the stronger diagram over the same joint universe
    strong_sem = compute_sem(strong, config)
    assert set(strong_sem) <= weak_members


def test_desugaring_neutrality(cd, example_diagrams):
    sugared = _cd(cd, "classdiagram D { classes A, B; }")
    expanded = _cd(cd, "classdiagram D { class A; class B; }")
    config = _config(example_diagrams)
    assert list(compute_sem(sugared, config)) == list(compute_sem(expanded, config))


def test_singleton_never_enlarges_semantics(cd, example_diagrams):
    plain = _cd(cd, "classdiagram D { class A; class B; }")
    marked = _cd(cd, "classdiagram D { <<singleton>> class A; class B; }")
    config = _config(example_diagrams, bounds=Bounds(max_objects=2))
    plain_members = set(compute_sem(plain, config))
    marked_members = set(compute_sem(marked, config))
    assert marked_members <= plain_members
    assert len(marked_members) < len(plain_members)


def test_membership_query_without_enumeration(cdsimp, example_diagrams):
    m = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    sem = compute_sem(m, _config(example_diagrams, mapping={"MapSuperCDirect"}))
    inside = make_system({"A", "B"}, REFL2 | {("A", "B")})
    outside = make_system({"A", "B"}, REFL2)
    assert sem.contains(inside)
    assert not sem.contains(outside)


# ---------------------------------------------------------------------------
# Staged enumeration against the oracle
# ---------------------------------------------------------------------------

def _oracle_members(models, config):
    """The valid systems every model accepts, found by the brute-force oracle
    (every subset of classes², every population), in canonical order."""
    valid = valid_predicate(config)
    accepts = [demands_of(m, config) for m in models]
    required = frozenset().union(*(a.classes for a in accepts))
    members = oracle_enumerate(
        config.bounds, required, lambda sm: valid(sm) and all(a(sm) for a in accepts)
    )
    return sorted(members, key=canonical_key)


@pytest.mark.parametrize("grammar, text, domain, mapping, extra, max_objects, assertion", [
    ("cd", "<<singleton>> class A; class B extends A; class C;",
     set(), {"MapSuperCDirect"}, (), 2, "no sub C A;"),
    ("cd", "<<fancy>> <<singleton>> class D extends B, C; class B; class C;",
     {"SingleInheritance"}, {"MapSuperCDelegate"}, (), 1, "no sub B C; no sub C B;"),
    ("cd", "class D extends B, C; <<singleton>> class B; class C;",
     {"SingleInheritance"}, {"MapSuperCDirect"}, (), 1, "no sub B C; no sub C B;"),
    ("cdsimp", "class A extends B; class B;",
     set(), {"MapSuperCDelegate"}, ("X",), 1, "sub X A;"),
])
def test_staged_enumeration_equals_oracle(
    request, cdassert, example_diagrams, grammar, text, domain, mapping, extra, max_objects,
    assertion,
):
    model = _cd(request.getfixturevalue(grammar), f"classdiagram D {{ {text} }}")
    doc = _cd(cdassert, f"assertions S {{ {assertion} }}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownStereotypeWarning)
        attrs = demands_of(model, _config(example_diagrams, domain, mapping)).attrs
        config = _config(example_diagrams, domain, mapping, Bounds(extra, max_objects, attrs))
        assert list(compute_sem(model, config)) == _oracle_members([model], config)
        expected = _oracle_members([model, doc], config)
        verdict = check_consistency([model, doc], config)
    assert verdict.holds == bool(expected)
    assert verdict.witness == (expected[0] if expected else None)


def test_unknown_stereotypes_warn_once_per_query(cd, example_diagrams):
    m = _cd(cd, "classdiagram D { <<fancy>> class A; <<shiny>> <<fancy>> class B extends A; }")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert compute_sem(m, _config(example_diagrams, bounds=Bounds(max_objects=1))).count() > 1
    assert sorted(str(w.message) for w in caught) == [
        "ignoring unknown stereotype <<fancy>> on class A",
        "ignoring unknown stereotype <<fancy>> on class B",
        "ignoring unknown stereotype <<shiny>> on class B",
    ]


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def test_make_semantics_config_validates(example_diagrams, example_configs):
    merged = validated_merge(example_diagrams, example_configs)
    config = make_semantics_config(example_diagrams, merged, Bounds())
    assert config.domain_config.selected == frozenset({"SingleInheritance"})
    assert config.mapping_config.selected == frozenset({"MapSuperCDelegate"})


def test_make_semantics_config_rejects_excluded_pair(example_diagrams):
    configs = [
        Configuration("a", "SystemModelVar", frozenset({"SingleInheritance"})),
        Configuration("b", "CDSimpSemVar", frozenset({"MapSuperCDirect"})),
    ]
    with pytest.raises(InvalidConfigurationError, match="excludes"):
        make_semantics_config(example_diagrams, validated_merge(example_diagrams, configs), Bounds())


def test_unbound_mapping_slot(example_diagrams, cdsimp):
    config = _config(example_diagrams, mapping=frozenset())
    m = _cd(cdsimp, "classdiagram D { class A; }")
    with pytest.raises(UnboundMappingError, match="mSuperClasses"):
        compute_sem(m, config).count()


def test_super_mapping_resolution(example_diagrams):
    delegate = Configuration("c", "CDSimpSemVar", frozenset({"MapSuperCDelegate"}))
    assert super_mapping_for(delegate) is map_super_delegate
    direct = Configuration("c", "CDSimpSemVar", frozenset({"MapSuperCDirect"}))
    assert super_mapping_for(direct) is map_super_direct


def test_unknown_language_rejected(example_diagrams):
    from vlang.schema import AstNode

    alien = AstNode("Statechart", {})
    with pytest.raises(SemanticsError, match="Statechart"):
        compute_sem(alien, _config(example_diagrams))
