from __future__ import annotations

import random
from itertools import chain, combinations, product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vlang.sysmodel import (
    DOMAIN_VARIANTS,
    Bounds,
    NameConventionError,
    SystemModelLite,
    canonical_key,
    composed_valid,
    domain_variant,
    dump_system,
    enumerate_systems,
    eval_valid_base,
    make_system,
    structurally_valid,
    valid_single_inheritance,
)

# ---------------------------------------------------------------------------
# Independent naive oracle: powerset loops over every component, reflexivity
# and transitivity re-written from scratch.
# ---------------------------------------------------------------------------

def _powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def oracle_base_valid(classes, sub) -> bool:
    ok = all((c, c) in sub for c in classes)
    for (a, b) in sub:
        for (c, d) in sub:
            if b == c and (a, d) not in sub:
                ok = False
    return ok


def oracle_enumerate(bounds: Bounds, required, predicate):
    """All systems within bounds satisfying `predicate`, as a set."""
    out = set()
    extras = set(bounds.extra_class_names) - set(required)
    for extra_choice in _powerset(sorted(extras)):
        classes = tuple(sorted(set(required) | set(extra_choice)))
        for sub in _powerset(sorted(product(classes, classes))):
            candidates = sorted(
                a for a in bounds.attr_candidates
                if a[0] in classes and a[2] in classes
            )
            for attrs in _powerset(candidates):
                if len({(o, n) for o, n, _ in attrs}) != len(attrs):
                    continue
                for count in range(bounds.max_objects + 1):
                    objects = tuple(f"o{i}" for i in range(1, count + 1))
                    for assignment in product(classes, repeat=count):
                        sm = make_system(
                            classes, sub, attrs, objects, zip(objects, assignment)
                        )
                        if predicate(sm) and sm not in out:
                            out.add(sm)
    return out


# ---------------------------------------------------------------------------
# Base validity
# ---------------------------------------------------------------------------

def test_reflexive_singleton_is_base_valid():
    assert eval_valid_base(make_system({"A"}, {("A", "A")}))


def test_missing_reflexive_pair_fails():
    assert not eval_valid_base(make_system({"A", "B"}, {("A", "A")}))


def test_missing_transitive_pair_fails():
    sm = make_system(
        {"A", "B", "C"},
        {("A", "A"), ("B", "B"), ("C", "C"), ("A", "B"), ("B", "C")},
    )
    assert not eval_valid_base(sm)
    closed = make_system(
        {"A", "B", "C"},
        {("A", "A"), ("B", "B"), ("C", "C"), ("A", "B"), ("B", "C"), ("A", "C")},
    )
    assert eval_valid_base(closed)


def test_structural_invariants_checked():
    stray = make_system({"A"}, {("A", "B")})
    assert not structurally_valid(stray)
    assert not eval_valid_base(stray)
    dup_attr = make_system({"A", "B"}, {("A", "A"), ("B", "B")},
                           {("A", "x", "A"), ("A", "x", "B")})
    assert not structurally_valid(dup_attr)
    untotal = make_system({"A"}, {("A", "A")}, objects={"o1"})
    assert not structurally_valid(untotal)


# ---------------------------------------------------------------------------
# Single inheritance (the bundled domain variant)
# ---------------------------------------------------------------------------

def _refl(classes):
    return {(c, c) for c in classes}


def test_two_unrelated_supers_violate_single_inheritance():
    sm = make_system(
        {"C1", "C2", "C3"},
        _refl({"C1", "C2", "C3"}) | {("C1", "C2"), ("C1", "C3")},
    )
    assert not valid_single_inheritance(sm)
    assert not domain_variant("SingleInheritance")(sm)


def test_reflexive_only_satisfies_single_inheritance():
    sm = make_system({"C1", "C2"}, _refl({"C1", "C2"}))
    assert valid_single_inheritance(sm)


def test_chain_satisfies_single_inheritance():
    sm = make_system(
        {"C1", "C2", "C3"},
        _refl({"C1", "C2", "C3"}) | {("C1", "C2"), ("C2", "C3"), ("C1", "C3")},
    )
    assert valid_single_inheritance(sm)


def test_unknown_variant_feature_raises():
    with pytest.raises(NameConventionError, match="valid-Ghost"):
        domain_variant("Ghost")


# ---------------------------------------------------------------------------
# Composed validity
# ---------------------------------------------------------------------------

def test_composed_with_single_inheritance():
    valid = composed_valid({"SingleInheritance"})
    multi = make_system(
        {"C1", "C2", "C3"},
        _refl({"C1", "C2", "C3"}) | {("C1", "C2"), ("C1", "C3")},
    )
    assert not valid(multi)
    refl_only = make_system({"C1", "C2"}, _refl({"C1", "C2"}))
    assert valid(refl_only)


def test_empty_composition_is_base_validity():
    valid = composed_valid(set())
    sm = make_system({"A", "B"}, _refl({"A", "B"}) | {("A", "B")})
    assert valid(sm) == eval_valid_base(sm)


def test_composed_two_class_subclassing():
    valid = composed_valid({"SingleInheritance"})
    sm = make_system({"A", "B"}, _refl({"A", "B"}) | {("A", "B")})
    assert valid(sm)


def test_composed_rejects_unregistered_feature():
    with pytest.raises(NameConventionError, match="valid-Ghost"):
        composed_valid({"Ghost"})


def test_custom_registry(monkeypatch):
    monkeypatch.setitem(DOMAIN_VARIANTS, "NoSubclassing", lambda sm: all(a == b for a, b in sm.sub))
    valid = composed_valid({"NoSubclassing"})
    assert valid(make_system({"A"}, {("A", "A")}))
    assert not valid(make_system({"A", "B"}, _refl({"A", "B"}) | {("A", "B")}))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_two_required_classes_give_four_base_systems():
    systems = list(enumerate_systems(Bounds(), {"A", "B"}, eval_valid_base))
    assert len(systems) == 4
    subs = [set(sm.sub) for sm in systems]
    refl = _refl({"A", "B"})
    assert refl in subs
    assert refl | {("A", "B")} in subs
    assert refl | {("B", "A")} in subs
    assert refl | {("A", "B"), ("B", "A")} in subs


def test_no_required_classes_gives_exactly_the_empty_system():
    systems = list(enumerate_systems(Bounds(), set(), eval_valid_base))
    assert systems == [make_system()]


def test_single_inheritance_cannot_fail_with_two_classes():
    valid = composed_valid({"SingleInheritance"})
    systems = list(enumerate_systems(Bounds(), {"A", "B"}, valid))
    assert len(systems) == 4


def test_enumeration_is_sorted_by_canonical_key_and_duplicate_free():
    bounds = Bounds(extra_class_names=("C",), max_objects=1,
                    attr_candidates=frozenset({("A", "x", "A")}))
    systems = list(enumerate_systems(bounds, {"A"}, eval_valid_base))
    keys = [canonical_key(sm) for sm in systems]
    assert keys == sorted(keys)
    assert len(set(systems)) == len(systems)


def test_enumeration_deterministic_across_runs():
    bounds = Bounds(extra_class_names=("B",), max_objects=1)
    first = list(enumerate_systems(bounds, {"A"}, eval_valid_base))
    second = list(enumerate_systems(bounds, {"A"}, eval_valid_base))
    assert first == second


def test_enumerated_systems_satisfy_invariants_and_predicate():
    valid = composed_valid({"SingleInheritance"})
    bounds = Bounds(extra_class_names=("B",), max_objects=1,
                    attr_candidates=frozenset({("A", "x", "B"), ("B", "y", "A")}))
    count = 0
    for sm in enumerate_systems(bounds, {"A"}, valid):
        count += 1
        assert structurally_valid(sm)
        assert valid(sm)
    assert count > 0


def test_oracle_equivalence_small_bounds():
    valid = composed_valid(set())
    cases = [
        (Bounds(), {"A", "B"}),
        (Bounds(extra_class_names=("C",)), {"A", "B"}),
        (Bounds(max_objects=1), {"A", "B"}),
        (Bounds(attr_candidates=frozenset({("A", "x", "B"), ("A", "y", "A")})), {"A", "B"}),
        (
            Bounds(
                extra_class_names=("C",),
                max_objects=1,
                attr_candidates=frozenset({("A", "x", "B")}),
            ),
            {"A", "B"},
        ),
    ]
    for bounds, required in cases:
        enumerated = list(enumerate_systems(bounds, required, valid))
        assert set(enumerated) == oracle_enumerate(bounds, required, valid)
        assert len(enumerated) == len(set(enumerated))


def test_oracle_equivalence_three_classes():
    enumerated = set(enumerate_systems(Bounds(), {"A", "B", "C"}, eval_valid_base))
    expected = oracle_enumerate(Bounds(), {"A", "B", "C"}, lambda sm: oracle_base_valid(set(sm.classes), set(sm.sub)))
    assert enumerated == expected


# A000798: labelled preorders on n elements.
@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355), (5, 6942)])
def test_object_free_base_valid_counts_are_labelled_preorders(n, count):
    systems = list(enumerate_systems(Bounds(), "ABCDE"[:n], eval_valid_base))
    assert len(systems) == count
    # Only preorders are generated, so accepting everything changes nothing.
    assert list(enumerate_systems(Bounds(), "ABCDE"[:n], lambda sm: True)) == systems


@st.composite
def _enumeration_cases(draw):
    """Bounds over at most four classes, at most one object and at most two
    attribute candidates (names shared, so uniqueness filters some sets).

    The oracle walks all 2^16 `sub` candidates of a four-class universe,
    times every attribute set and object assignment (over a million systems
    with both), so four-class cases draw neither; attributes and objects,
    which the enumerator walks as before, are drawn up to three classes.
    """
    names = sorted(draw(st.permutations("ABCD"))[: draw(st.integers(0, 4))])
    roles = [draw(st.sampled_from(("required", "extra", "both"))) for _ in names]
    required = {c for c, role in zip(names, roles) if role != "extra"}
    extra = [c for c, role in zip(names, roles) if role != "required"]
    small = len(names) < 4
    triples = [(o, n, t) for o in names for n in "xy" for t in names]
    attrs = draw(st.lists(st.sampled_from(triples), unique=True, max_size=2)) if small and names else []
    bounds = Bounds(tuple(extra), draw(st.integers(0, 1 if small else 0)), frozenset(attrs))
    features = {"SingleInheritance"} if draw(st.booleans()) else set()
    return bounds, required, composed_valid(features)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_enumeration_cases())
@example((Bounds(("D",)), {"A", "B", "C"}, composed_valid({"SingleInheritance"})))
def test_enumeration_equals_sorted_oracle(case):
    bounds, required, valid = case
    expected = sorted(oracle_enumerate(bounds, required, valid), key=canonical_key)
    assert list(enumerate_systems(bounds, required, valid)) == expected


# ---------------------------------------------------------------------------
# Isomorphism invariance
# ---------------------------------------------------------------------------

def _rename(sm: SystemModelLite, mapping: dict[str, str]) -> SystemModelLite:
    return make_system(
        (mapping[c] for c in sm.classes),
        ((mapping[a], mapping[b]) for a, b in sm.sub),
        ((mapping[o], n, mapping[t]) for o, n, t in sm.attrs),
        sm.objects,
        ((o, mapping[c]) for o, c in sm.class_of),
    )


def test_predicates_invariant_under_class_renaming():
    rng = random.Random(7)
    names = ["A", "B", "C"]
    for _ in range(200):
        pair_pool = list(product(names, names))
        sub = {p for p in pair_pool if rng.random() < 0.4}
        sm = make_system(names, sub)
        targets = ["X", "Y", "Z"]
        rng.shuffle(targets)
        mapping = dict(zip(names, targets))
        renamed = _rename(sm, mapping)
        assert eval_valid_base(sm) == eval_valid_base(renamed)
        assert valid_single_inheritance(sm) == valid_single_inheritance(renamed)


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------

def test_dump_sections():
    sm = make_system(
        {"A", "B"},
        _refl({"A", "B"}) | {("A", "B")},
        {("A", "dlg_B", "B")},
        {"o1"},
        {("o1", "A")},
    )
    assert dump_system(sm) == (
        "CLASSES A B\n"
        "SUB (A,A) (A,B) (B,B)\n"
        "ATTRS (A,dlg_B,B)\n"
        "OBJECTS o1\n"
        "CLASSOF (o1,A)\n"
    )


def test_dump_empty_sections_are_bare_headers():
    assert dump_system(make_system()) == "CLASSES\nSUB\nATTRS\nOBJECTS\nCLASSOF\n"


def test_bounds_describe_is_deterministic():
    bounds = Bounds(("B", "A"), 2, frozenset({("A", "x", "B"), ("A", "a", "A")}))
    assert bounds.describe() == "extra={A,B};maxObjects=2;attrs={(A,a,A),(A,x,B)}"


def test_bounds_reject_negative_objects():
    with pytest.raises(ValueError):
        Bounds(max_objects=-1)
