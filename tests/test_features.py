from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_validate
from vlang import bundled
from vlang.features import (
    Configuration,
    CrossConstraint,
    Feature,
    FeatureDiagram,
    FeatureModelError,
    FeatureRef,
    FeatureSyntaxError,
    ResolutionError,
    VariationPoint,
    merge_configurations,
    parse_configurations,
    parse_feature_diagrams,
    render_violations,
    validate_configurations,
    validated_merge,
)

# ---------------------------------------------------------------------------
# Independent validity oracle: a straight transcription of the rules,
# evaluated over explicit per-diagram selections.
# ---------------------------------------------------------------------------

def oracle_valid(diagrams: list[FeatureDiagram], selection: dict[str, set[str]]) -> bool:
    home = {}
    for d in diagrams:
        for name in d.features():
            home[name] = d.name
    for d in diagrams:
        chosen = selection.get(d.name, set())
        if not chosen <= set(d.features()):
            return False
        for vp in d.variation_points:
            members = {f.name for f in vp.features}
            if vp.is_xor and len(members & chosen) != 1:
                return False
            for f in vp.features:
                if f.modality == "mandatory" and f.name not in chosen:
                    return False
    union = {
        (d_name, f) for d_name, chosen in selection.items() for f in chosen
    }
    for d in diagrams:
        for c in d.constraints:
            src = (c.source.diagram or home[c.source.feature], c.source.feature)
            tgt = (c.target.diagram or home[c.target.feature], c.target.feature)
            if c.relation == "requires" and src in union and tgt not in union:
                return False
            if c.relation == "excludes" and src in union and tgt in union:
                return False
    return True


def all_selections(diagrams: list[FeatureDiagram]):
    """Every assignment of feature subsets to the diagrams declaring them."""
    universe = [(d.name, f) for d in diagrams for f in sorted(d.features())]
    for r in range(len(universe) + 1):
        for chosen in combinations(universe, r):
            selection: dict[str, set[str]] = {d.name: set() for d in diagrams}
            for d_name, f in chosen:
                selection[d_name].add(f)
            yield selection


def validator_accepts(diagrams, selection: dict[str, set[str]]) -> bool:
    configs = [
        Configuration(f"c-{name}", name, frozenset(chosen))
        for name, chosen in selection.items()
    ]
    return not validate_configurations(diagrams, merge_configurations(configs))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_domain_diagram_text(example_diagrams):
    domain = example_diagrams[0]
    assert domain.name == "SystemModelVar"
    assert [vp.name for vp in domain.variation_points] == ["vObject", "vType"]
    v_object = domain.variation_points[0]
    assert v_object.attached_theory == "Object"
    assert [f.name for f in v_object.features] == ["SingleInheritance"]
    assert v_object.features[0].modality == "optional"
    assert v_object.features[0].kind == "semantic-domain"
    assert domain.variation_points[1].features == ()


def test_mapping_diagram_text(example_diagrams):
    mapping = example_diagrams[1]
    assert mapping.name == "CDSimpSemVar"
    (vp,) = mapping.variation_points
    assert vp.is_xor
    assert [f.name for f in vp.features] == ["MapSuperCDirect", "MapSuperCDelegate"]
    (constraint,) = mapping.constraints
    assert constraint.relation == "excludes"
    assert constraint.source.feature == "MapSuperCDirect"
    assert constraint.target.diagram == "SystemModelVar"
    assert constraint.target.feature == "SingleInheritance"


def test_single_member_xor_rejected():
    with pytest.raises(FeatureSyntaxError, match="at least 2"):
        parse_feature_diagrams(
            "featurediagram X { vp v for theory T { xor { "
            "feature F kind semantic-domain; } } }"
        )


def test_duplicate_feature_names_rejected():
    with pytest.raises(FeatureModelError, match="duplicate feature"):
        parse_feature_diagrams(
            "featurediagram X { vp v for theory T { "
            "optional feature F kind presentation; "
            "optional feature F kind presentation; } }"
        )


def test_unknown_kind_rejected():
    with pytest.raises(FeatureSyntaxError, match="expected one of"):
        parse_feature_diagrams(
            "featurediagram X { vp v for theory T { "
            "optional feature F kind magic; } }"
        )


_NAMED_FD = (
    "featurediagram X { vp v for theory T { optional feature F kind presentation; } "
    "constraint F requires X . F ; }"
)
_NAMED_CONF = "configuration C for X { select F ; }"


@pytest.mark.parametrize("parse, text, at, what", [
    (parse_feature_diagrams, _NAMED_FD, 1, "diagram"),
    (parse_feature_diagrams, _NAMED_FD, 4, "variation point"),
    (parse_feature_diagrams, _NAMED_FD, 7, "theory"),
    (parse_feature_diagrams, _NAMED_FD, 11, "feature"),
    (parse_feature_diagrams, _NAMED_FD, 16, "feature"),
    (parse_feature_diagrams, _NAMED_FD, 18, "feature"),
    (parse_feature_diagrams, _NAMED_FD, 20, "feature"),
    (parse_configurations, _NAMED_CONF, 1, "configuration"),
    (parse_configurations, _NAMED_CONF, 3, "diagram"),
    (parse_configurations, _NAMED_CONF, 6, "feature"),
], ids=["diagram", "vp", "theory", "feature", "source", "qualifier", "target",
        "configuration", "configured diagram", "selected"])
def test_a_name_is_a_word_without_a_hyphen(parse, text, at, what):
    words = text.split(" ")
    words[at] = "semantic-domain"
    col = len(" ".join(words[:at])) + 2
    with pytest.raises(FeatureSyntaxError) as exc:
        parse(" ".join(words))
    assert str(exc.value) == f"line 1, col {col}: expected {what} name, got 'semantic-domain'"


def test_configuration_parse():
    (conf,) = parse_configurations(bundled.DOMAIN_CONF_TEXT)
    assert conf.name == "SMConf"
    assert conf.diagram == "SystemModelVar"
    assert conf.selected == frozenset({"SingleInheritance"})


def test_empty_selection_parses():
    (conf,) = parse_configurations("configuration C for D { }")
    assert conf.selected == frozenset()


def test_duplicate_selects_collapse():
    (conf,) = parse_configurations("configuration C for D { select F; select F; }")
    assert conf.selected == frozenset({"F"})


def test_multi_diagram_file(example_diagrams):
    assert len(parse_feature_diagrams(bundled.EXAMPLE_FD_TEXT)) == 2


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

def test_merge_unions_same_diagram():
    a = Configuration("a", "D", frozenset({"A"}))
    b = Configuration("b", "D", frozenset({"B"}))
    (merged,) = merge_configurations([a, b])
    assert merged.selected == frozenset({"A", "B"})
    assert merged.diagram == "D"


def test_merge_single_config_is_identity_up_to_selection():
    c = Configuration("only", "D", frozenset({"A"}))
    (merged,) = merge_configurations([c])
    assert merged.selected == c.selected
    assert merged.diagram == c.diagram


def test_merge_keeps_distinct_diagrams_apart():
    a = Configuration("a", "D1", frozenset({"A"}))
    b = Configuration("b", "D2", frozenset({"B"}))
    merged = merge_configurations([a, b])
    assert [(m.diagram, m.selected) for m in merged] == [
        ("D1", frozenset({"A"})),
        ("D2", frozenset({"B"})),
    ]


def test_merge_commutative_and_associative():
    rng = random.Random(20260810)
    diagrams = ["D1", "D2", "D3"]
    features = ["F1", "F2", "F3", "F4"]
    for _ in range(50):
        configs = [
            Configuration(
                f"c{i}",
                rng.choice(diagrams),
                frozenset(rng.sample(features, rng.randint(0, len(features)))),
            )
            for i in range(rng.randint(1, 6))
        ]
        shuffled = configs[:]
        rng.shuffle(shuffled)
        base = {(m.diagram, m.selected) for m in merge_configurations(configs)}
        assert {(m.diagram, m.selected) for m in merge_configurations(shuffled)} == base
        # associativity: merging a merge changes nothing
        again = merge_configurations(merge_configurations(configs))
        assert {(m.diagram, m.selected) for m in again} == base


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_example_selection_validates(example_diagrams, example_configs):
    merged = merge_configurations(example_configs)
    assert validate_configurations(example_diagrams, merged) == []


def test_direct_with_single_inheritance_is_excluded(example_diagrams):
    configs = parse_configurations(bundled.DOMAIN_CONF_TEXT) + parse_configurations(
        bundled.DIRECT_CONF_TEXT
    )
    violations = validate_configurations(example_diagrams, merge_configurations(configs))
    assert len(violations) == 1
    assert violations[0].rule == "excludes"
    assert render_violations(violations) == (
        "VIOLATION CDSimpSemVar excludes MapSuperCDirect "
        "with SystemModelVar.SingleInheritance"
    )


def test_xor_requires_exactly_one(example_diagrams):
    both = Configuration(
        "both", "CDSimpSemVar", frozenset({"MapSuperCDirect", "MapSuperCDelegate"})
    )
    violations = validate_configurations(example_diagrams, merge_configurations([both]))
    assert any(v.rule == "xor-exactly-one" for v in violations)
    none = Configuration("none", "CDSimpSemVar", frozenset())
    violations = validate_configurations(example_diagrams, merge_configurations([none]))
    assert any(v.rule == "xor-exactly-one" for v in violations)


def test_unknown_feature_flagged(example_diagrams):
    conf = Configuration("c", "SystemModelVar", frozenset({"Ghost"}))
    violations = validate_configurations(example_diagrams, merge_configurations([conf]))
    assert any(v.rule == "unknown-feature" and "Ghost" in v.details for v in violations)


def test_mandatory_feature_enforced():
    (d,) = parse_feature_diagrams(
        "featurediagram D { vp v for theory T { "
        "mandatory feature Core kind semantic-domain; "
        "optional feature Extra kind semantic-domain; } }"
    )
    empty = Configuration("c", "D", frozenset())
    violations = validate_configurations([d], merge_configurations([empty]))
    assert [v.rule for v in violations] == ["mandatory-missing"]
    ok = Configuration("c", "D", frozenset({"Core"}))
    assert validate_configurations([d], merge_configurations([ok])) == []


def test_requires_constraint():
    (d,) = parse_feature_diagrams(
        "featurediagram D { vp v for theory T { "
        "optional feature A kind semantic-domain; "
        "optional feature B kind semantic-domain; } "
        "constraint A requires B; }"
    )
    bad = Configuration("c", "D", frozenset({"A"}))
    violations = validate_configurations([d], merge_configurations([bad]))
    assert [v.rule for v in violations] == ["requires"]
    good = Configuration("c", "D", frozenset({"A", "B"}))
    assert validate_configurations([d], merge_configurations([good])) == []


def test_unresolved_constraint_reference_raises():
    (d,) = parse_feature_diagrams(
        "featurediagram D { vp v for theory T { "
        "optional feature A kind semantic-domain; } "
        "constraint A requires Ghost; }"
    )
    with pytest.raises(ResolutionError, match="Ghost"):
        validate_configurations([d], [Configuration("c", "D", frozenset())])


def test_config_for_unknown_diagram_raises(example_diagrams):
    conf = Configuration("c", "Nowhere", frozenset())
    with pytest.raises(ResolutionError, match="Nowhere"):
        validate_configurations(example_diagrams, merge_configurations([conf]))


def test_workspace_unique_feature_names_enforced():
    (d1,) = parse_feature_diagrams(
        "featurediagram D1 { vp v for theory T { "
        "optional feature F kind presentation; } }"
    )
    (d2,) = parse_feature_diagrams(
        "featurediagram D2 { vp w for theory U { "
        "optional feature F kind presentation; } }"
    )
    with pytest.raises(FeatureModelError, match="workspace-unique"):
        validate_configurations([d1, d2], [])


def test_violation_lines_sorted_lexicographically(example_diagrams):
    configs = [
        Configuration("c1", "SystemModelVar", frozenset({"Ghost", "SingleInheritance"})),
        Configuration("c2", "CDSimpSemVar", frozenset({"MapSuperCDirect"})),
    ]
    violations = validate_configurations(example_diagrams, merge_configurations(configs))
    lines = render_violations(violations).splitlines()
    assert lines == sorted(lines)
    assert len(lines) == 2  # excludes + unknown-feature


# Two diagrams for the exact messages: P owns A and B, Q owns C.
_PINNED_FD = (
    "featurediagram P { vp v for theory T { "
    "optional feature A kind semantic-domain; optional feature B kind semantic-domain; } "
    "%s } "
    "featurediagram Q { vp w for theory U { optional feature C kind semantic-domain; } }"
)


@pytest.mark.parametrize(
    "constraint, message",
    [
        ("constraint A requires Nowhere.C;",
         "constraint in P references diagram Nowhere which is not in scope"),
        ("constraint A requires P.C;", "constraint in P references unknown feature P.C"),
        ("constraint Q.A excludes C;", "constraint in P references unknown feature Q.A"),
        ("constraint A requires Ghost;", "constraint in P references unknown feature Ghost"),
        # The target is resolved even when the source is not selected.
        ("constraint B excludes Ghost;", "constraint in P references unknown feature Ghost"),
    ],
)
def test_unresolvable_reference_messages(constraint, message):
    diagrams = parse_feature_diagrams(_PINNED_FD % constraint)
    with pytest.raises(ResolutionError) as info:
        validated_merge(diagrams, [Configuration("c", "P", frozenset({"A"}))])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "constraint, selected, line",
    [
        ("constraint A requires C;", {"A"}, "VIOLATION P requires A without C"),
        ("constraint P.A requires Q.C;", {"A"}, "VIOLATION P requires P.A without Q.C"),
        ("constraint A requires B;", {"A"}, "VIOLATION P requires A without B"),
        ("constraint A requires Q.C;", {"A", "C"}, ""),
        ("constraint B requires C;", {"A"}, ""),
        ("constraint A excludes C;", {"A", "C"}, "VIOLATION P excludes A with C"),
        ("constraint A excludes Q.C;", {"A", "C"}, "VIOLATION P excludes A with Q.C"),
        ("constraint P.A excludes P.B;", {"A", "B"}, "VIOLATION P excludes P.A with P.B"),
        ("constraint P.A excludes Q.C;", {"A"}, ""),
        ("constraint Q.C excludes A;", {"A"}, ""),
    ],
)
def test_constraint_violation_lines(constraint, selected, line):
    diagrams = parse_feature_diagrams(_PINNED_FD % constraint)
    configs = [
        Configuration("p", "P", frozenset(selected & {"A", "B"})),
        Configuration("q", "Q", frozenset(selected & {"C"})),
    ]
    assert render_violations(validate_configurations(diagrams, configs)) == line


def test_a_feature_selected_outside_its_home_holds_no_constraint():
    diagrams = parse_feature_diagrams(_PINNED_FD % "constraint A requires C;")
    configs = [Configuration("p", "P", frozenset({"A", "C"}))]
    assert render_violations(validate_configurations(diagrams, configs)) == (
        "VIOLATION P requires A without C\nVIOLATION P unknown-feature C"
    )


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

def test_validator_matches_oracle_on_example_diagrams(example_diagrams):
    accepted = []
    for selection in all_selections(example_diagrams):
        expected = oracle_valid(example_diagrams, selection)
        assert validator_accepts(example_diagrams, selection) == expected
        if expected:
            accepted.append(selection)
    # exactly one mapping variant chosen and never Direct together with
    # SingleInheritance
    frozen = {
        (
            frozenset(sel["SystemModelVar"]),
            frozenset(sel["CDSimpSemVar"]),
        )
        for sel in accepted
    }
    assert frozen == {
        (frozenset(), frozenset({"MapSuperCDirect"})),
        (frozenset(), frozenset({"MapSuperCDelegate"})),
        (frozenset({"SingleInheritance"}), frozenset({"MapSuperCDelegate"})),
    }


def test_validator_matches_oracle_on_random_diagrams():
    rng = random.Random(42)
    kinds = ("semantic-domain", "semantic-mapping", "presentation")
    for _ in range(15):
        names = iter(f"F{i}" for i in range(100))
        vps = []
        for v in range(rng.randint(1, 2)):
            if rng.random() < 0.4:
                members = [next(names) for _ in range(rng.randint(2, 3))]
                vps.append(
                    f"vp v{v} for theory T{v} {{ xor {{ "
                    + " ".join(
                        f"feature {m} kind {rng.choice(kinds)};" for m in members
                    )
                    + " } }"
                )
            else:
                members = [next(names) for _ in range(rng.randint(1, 3))]
                vps.append(
                    f"vp v{v} for theory T{v} {{ "
                    + " ".join(
                        f"{rng.choice(('optional', 'mandatory'))} feature {m} "
                        f"kind {rng.choice(kinds)};"
                        for m in members
                    )
                    + " }"
                )
        (diagram,) = parse_feature_diagrams("featurediagram R { " + " ".join(vps) + " }")
        feature_names = sorted(diagram.features())
        constraints = []
        if len(feature_names) >= 2:
            a, b = rng.sample(feature_names, 2)
            constraints.append(f"constraint {a} {rng.choice(('requires', 'excludes'))} {b};")
            (diagram,) = parse_feature_diagrams(
                "featurediagram R { " + " ".join(vps) + " " + " ".join(constraints) + " }"
            )
        assert len(feature_names) <= 12
        for selection in all_selections([diagram]):
            assert validator_accepts([diagram], selection) == oracle_valid(
                [diagram], selection
            )


@st.composite
def _workspaces(draw):
    """Diagrams D0..D2 of xor, optional and mandatory points, rarely sharing
    a feature name; constraints whose references are unqualified or qualified
    by their home, another or an out-of-scope diagram, and may name an
    unknown feature; configurations that select mostly their own diagram's
    features, and may select foreign or unknown ones or name an unknown
    diagram."""
    names = iter(f"F{i}" for i in range(100))
    home: dict[str, str] = {}
    diagrams = []
    for d in range(draw(st.integers(1, 3))):
        vps = []
        for v in range(draw(st.integers(0, 2))):
            is_xor = draw(st.booleans())
            modalities = (
                ["xor-member"] * draw(st.integers(2, 3))
                if is_xor
                else draw(st.lists(st.sampled_from(["optional", "mandatory"]), max_size=3))
            )
            features = []
            for modality in modalities:
                shared = home and draw(st.integers(0, 39)) == 0
                features.append(Feature(
                    draw(st.sampled_from(sorted(home))) if shared else next(names),
                    modality,
                    "semantic-domain",
                ))
            vps.append(VariationPoint(f"v{v}", "T", tuple(features), is_xor))
        for vp in vps:
            for f in vp.features:
                home.setdefault(f.name, f"D{d}")
        diagrams.append((f"D{d}", tuple(vps)))
    scopes = [name for name, _ in diagrams]
    known = sorted(home)

    # One workspace in three may hold unresolvable references.
    loose = draw(st.integers(0, 2)) == 0

    def feature() -> str:
        unknown = not known or (loose and draw(st.integers(0, 4)) == 0)
        return "Ghost" if unknown else draw(st.sampled_from(known))

    def ref() -> FeatureRef:
        name, k = feature(), draw(st.integers(0, 9 if loose else 7))
        if k < 5:
            return FeatureRef(None, name)
        if k < 8:
            return FeatureRef(home.get(name, "D0"), name)
        return FeatureRef("Nowhere" if k == 9 else draw(st.sampled_from(scopes)), name)

    built = [
        FeatureDiagram(
            name,
            vps,
            tuple(
                CrossConstraint(ref(), draw(st.sampled_from(["requires", "excludes"])), ref())
                for _ in range(draw(st.integers(0, 3 if known or loose else 0)))
            ),
        )
        for name, vps in diagrams
    ]
    configs = []
    for i in range(draw(st.integers(0, 4))):
        diagram = draw(st.sampled_from(scopes))
        own = [f for f in known if home[f] == diagram]
        chosen = draw(st.sets(st.sampled_from(own), max_size=3)) if own else set()
        if draw(st.integers(0, 4)) == 0:
            chosen.add(feature())
        configs.append(Configuration(f"c{i % 2}", diagram, frozenset(chosen)))
    if draw(st.integers(0, 15)) == 0:
        configs.append(Configuration("c", "Nowhere", frozenset()))
    return built, configs


def _outcome(validate, diagrams, configs):
    try:
        return validate(diagrams, merge_configurations(configs))
    except FeatureModelError as exc:
        return type(exc), str(exc)


# The example budget comes from the hypothesis profile (tests/conftest.py).
@settings(deadline=None, derandomize=True)
@given(_workspaces())
def test_validator_equals_its_former_body(workspace):
    diagrams, configs = workspace
    assert _outcome(validate_configurations, diagrams, configs) == _outcome(
        oracle_validate, diagrams, configs
    )
