from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout, suppress
from io import StringIO
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import zeroed_counts
from oracles import (
    FRAME_VARIANTS,
    composed_valid,
    eval_valid_base,
    holds,
    make_system,
    oracle_base_valid,
    oracle_enumerate,
    oracle_populations,
    oracle_preorders,
    structurally_valid,
    valid_single_inheritance,
    variants_valid,
    walked,
)
from vlang import cli, sysmodel
from vlang.sysmodel import (
    DOMAIN_VARIANTS,
    Bounds,
    Demands,
    NameConventionError,
    SystemModelLite,
    canonical_key,
    domain_variant,
    dump_system,
    variant_rules,
)

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
    assert not sysmodel._admitted(sm.classes, sm.sub, (domain_variant("SingleInheritance"),))


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
    monkeypatch.setitem(DOMAIN_VARIANTS, "NoSubclassing", lambda up, down, ups, downs: not up | down)
    monkeypatch.setitem(FRAME_VARIANTS, "NoSubclassing", lambda sm: all(a == b for a, b in sm.sub))
    valid = composed_valid({"NoSubclassing"})
    assert valid(make_system({"A"}, {("A", "A")}))
    assert not valid(make_system({"A", "B"}, _refl({"A", "B"}) | {("A", "B")}))
    rules = variant_rules({"NoSubclassing"})
    assert walked(Bounds(), Demands(frozenset("AB")), rules) == [make_system("AB", _refl("AB"))]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_two_required_classes_give_four_base_systems():
    systems = walked(Bounds(), Demands(frozenset("AB")), ())
    assert len(systems) == 4
    subs = [set(sm.sub) for sm in systems]
    refl = _refl({"A", "B"})
    assert refl in subs
    assert refl | {("A", "B")} in subs
    assert refl | {("B", "A")} in subs
    assert refl | {("A", "B"), ("B", "A")} in subs


def test_no_required_classes_gives_exactly_the_empty_system():
    systems = walked(Bounds(), Demands(), ())
    assert systems == [make_system()]


def test_single_inheritance_cannot_fail_with_two_classes():
    rules = variant_rules({"SingleInheritance"})
    systems = walked(Bounds(), Demands(frozenset("AB")), rules)
    assert len(systems) == 4


def test_enumeration_is_sorted_by_canonical_key_and_duplicate_free():
    bounds = Bounds(extra_class_names=("C",), max_objects=1)
    demands = Demands(frozenset("A"), attrs=frozenset({("A", "x", "A")}))
    systems = walked(bounds, demands, ())
    keys = [canonical_key(sm) for sm in systems]
    assert keys == sorted(keys)
    assert len(set(systems)) == len(systems)


def test_enumeration_deterministic_across_runs():
    bounds = Bounds(extra_class_names=("B",), max_objects=1)
    first = walked(bounds, Demands(frozenset("A")), ())
    second = walked(bounds, Demands(frozenset("A")), ())
    assert first == second


def test_enumerated_systems_satisfy_invariants_and_predicate():
    valid = composed_valid({"SingleInheritance"})
    bounds = Bounds(extra_class_names=("B",), max_objects=1)
    demands = Demands(frozenset("A"), attrs=frozenset({("A", "x", "B"), ("B", "y", "A")}))
    count = 0
    for sm in walked(bounds, demands, variant_rules({"SingleInheritance"})):
        count += 1
        assert structurally_valid(sm)
        assert valid(sm)
    assert count > 0


def test_oracle_equivalence_small_bounds():
    # The oracle also walks triples nobody demands; a system carries exactly
    # the demanded attrs.
    valid = composed_valid(set())
    others = frozenset({("A", "x", "A"), ("C", "z", "B")})
    cases = [
        (Bounds(), frozenset()),
        (Bounds(extra_class_names=("C",)), frozenset()),
        (Bounds(max_objects=1), frozenset()),
        (Bounds(), frozenset({("A", "x", "B"), ("A", "y", "A")})),
        (Bounds(extra_class_names=("C",), max_objects=1), frozenset({("A", "x", "B")})),
        (Bounds(extra_class_names=("C",)), frozenset({("A", "y", "C")})),
    ]
    for bounds, attrs in cases:
        demands = Demands(frozenset("AB"), attrs=attrs)
        enumerated = walked(bounds, demands, ())
        expected = oracle_enumerate(
            bounds, demands.classes, lambda sm: valid(sm) and set(sm.attrs) == attrs, attrs | others)
        assert set(enumerated) == expected
        assert len(enumerated) == len(set(enumerated))


def test_oracle_equivalence_three_classes():
    enumerated = set(walked(Bounds(), Demands(frozenset("ABC")), ()))
    expected = oracle_enumerate(Bounds(), {"A", "B", "C"}, lambda sm: oracle_base_valid(set(sm.classes), set(sm.sub)))
    assert enumerated == expected


# A000798: labelled preorders on n elements.
@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355), (5, 6942)])
def test_object_free_base_valid_counts_are_labelled_preorders(n, count):
    systems = walked(Bounds(), Demands(frozenset("ABCDE"[:n])), ())
    assert len(systems) == count
    # Only preorders are generated, so every system is base-valid.
    assert all(eval_valid_base(sm) for sm in systems)


@st.composite
def _enumeration_cases(draw, max_names=4):
    """Bounds over at most four classes and at most one object, demands of
    the required classes and some of at most two attribute triples (names
    shared, so two demanded attrs may clash), and the triples not demanded.
    The oracle walks every subset of both kinds of triple.

    The oracle walks all 2^16 `sub` candidates of a four-class universe,
    times every attribute set and object assignment (over a million systems
    with both), so four-class cases draw neither; attributes and objects,
    which the enumerator walks as before, are drawn up to three classes.
    """
    names = sorted(draw(st.permutations("ABCD"))[: draw(st.integers(0, max_names))])
    roles = [draw(st.sampled_from(("required", "extra", "both"))) for _ in names]
    required = {c for c, role in zip(names, roles) if role != "extra"}
    extra = [c for c, role in zip(names, roles) if role != "required"]
    small = len(names) < 4
    triples = [(o, n, t) for o in names for n in "xy" for t in names]
    drawn = draw(st.lists(st.sampled_from(triples), unique=True, max_size=2)) if small and names else []
    attrs = frozenset(draw(st.lists(st.sampled_from(drawn), unique=True))) if drawn else frozenset()
    bounds = Bounds(tuple(extra), draw(st.integers(0, 1 if small else 0)))
    features = {"SingleInheritance"} if draw(st.booleans()) else set()
    return bounds, Demands(frozenset(required), attrs=attrs), features, frozenset(drawn) - attrs


# The example budget comes from the hypothesis profile (tests/conftest.py).
_ORACLE_SETTINGS = settings(deadline=None, derandomize=True,
                            suppress_health_check=[HealthCheck.too_slow])


@_ORACLE_SETTINGS
@given(_enumeration_cases())
@example((Bounds(("D",)), Demands(frozenset("ABC")), {"SingleInheritance"}, frozenset()))
def test_enumeration_equals_sorted_oracle(case):
    bounds, demands, features, others = case
    valid = composed_valid(features)
    expected = sorted(oracle_enumerate(
        bounds, demands.classes, lambda sm: valid(sm) and set(sm.attrs) == demands.attrs,
        demands.attrs | others), key=canonical_key)
    assert walked(bounds, demands, variant_rules(features)) == expected


def _decoded(classes: tuple[str, ...], mask: int) -> tuple:
    """The sorted pairs of a `_preorders` mask: pair rank i at bit n*n-1-i."""
    n = len(classes)
    ranked = enumerate(sorted(product(classes, classes)))
    return tuple(pair for rank, pair in ranked if mask >> (n * n - 1 - rank) & 1)


def test_preorder_counts_are_labelled_preorders_through_six_classes():
    counts = [len(sysmodel._preorders(tuple("ABCDEF"[:n]), (), ())) for n in range(7)]
    assert counts == [1, 1, 4, 29, 355, 6942, 209527]


def test_mask_order_is_the_order_of_the_sorted_pair_tuples():
    classes = tuple("ABCDE")
    decoded = [_decoded(classes, mask) for mask in sysmodel._preorders(classes, (), ())]
    assert decoded == sorted(decoded, key=lambda sub: (len(sub), sub))
    assert len(set(decoded)) == len(decoded)


@st.composite
def _preorder_bounds(draw):
    """At most five sorted classes, required pairs among them, and forbidden
    pairs, some naming a class outside them, that miss the reflexive and
    transitive closure of the required ones."""
    classes = tuple(sorted(draw(st.sets(st.sampled_from("ABCDEFG"), max_size=5))))
    names = [*classes, "Z"]
    pairs = st.sets(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=4)
    must = {(a, b) for a, b in draw(pairs) if a in classes and b in classes}
    return classes, must, draw(pairs) - _closure(classes, must)


def _closure(classes, pairs) -> set:
    """The reflexive and transitive closure of `pairs` over `classes`."""
    closure = set(pairs) | {(c, c) for c in classes}
    for k in classes:  # Warshall
        closure |= {(a, d) for a, b in closure if b == k for c, d in closure if c == k}
    return closure


@_ORACLE_SETTINGS
@given(_preorder_bounds())
@example((tuple("ABCDE"), set(), {("Z", "A")}))
@example((tuple("ABCD"), {("D", "A"), ("B", "C")}, {("A", "D"), ("C", "A")}))
def test_preorders_equal_the_oracle(case):
    classes, must, must_not = case
    expected = oracle_preorders(classes, must, must_not)
    masks = sysmodel._preorders(classes, must, must_not)
    assert [_decoded(classes, mask) for mask in masks] == expected
    assert list(map(sysmodel._decoder(classes), masks)) == expected
    # first_system answers with the least relation when it is admitted
    assert expected[0] == tuple(sorted(_closure(classes, must)))


@_ORACLE_SETTINGS
@given(_preorder_bounds(), st.sampled_from(sorted(FRAME_VARIANTS)))
@example((tuple("ABCDE"), set(), set()), "SingleInheritance")
@example((tuple("ABCD"), {("D", "B"), ("D", "C")}, {("B", "C")}), "SingleInheritance")
def test_placement_rules_build_the_oracle_preorders_their_predicate_keeps(case, feature):
    classes, must, must_not = case
    valid = FRAME_VARIANTS[feature]
    expected = [sub for sub in oracle_preorders(classes, must, must_not) if valid(make_system(classes, sub))]
    masks = sysmodel._preorders(classes, must, must_not, (DOMAIN_VARIANTS[feature],))
    assert [_decoded(classes, mask) for mask in masks] == expected


@_ORACLE_SETTINGS
@given(_preorder_bounds(), st.sampled_from(sorted(FRAME_VARIANTS)))
def test_the_least_frame_judgement_is_the_frame_predicate(case, feature):
    # first_system judges a universe's least frame by replaying its
    # placements; any preorder may be a least frame.
    classes, must, must_not = case
    valid, rules = FRAME_VARIANTS[feature], (DOMAIN_VARIANTS[feature],)
    least = _closure(classes, must)
    assert sysmodel._admitted(classes, least, rules) == valid(make_system(classes, least))
    for sub in oracle_preorders(classes, must, must_not)[:100]:
        assert sysmodel._admitted(classes, sub, rules) == valid(make_system(classes, sub))


@st.composite
def _pair_bounded_cases(draw):
    """An enumeration case over at most three classes (the oracle's four-class
    walk is left to the examples) and up to two objects, with the query's
    demands: its required classes and attrs, required and forbidden `sub`
    pairs over its class names, extras included, and capped classes among
    its names; and the triples it does not demand."""
    bounds, demands, features, others = draw(_enumeration_cases(max_names=3))
    bounds = bounds._replace(max_objects=draw(st.integers(0, 2)))
    names = sorted(demands.classes | set(bounds.extra_class_names))
    pairs = st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                     max_size=3, unique=True) if names else st.just([])
    caps = st.lists(st.sampled_from(names), max_size=2, unique=True) if names else st.just([])
    demands = Demands(demands.classes, *(frozenset(draw(s)) for s in (pairs, pairs)),
                      demands.attrs, frozenset(draw(caps)))
    return bounds, features, demands, others


@_ORACLE_SETTINGS
@given(_pair_bounded_cases())
@example((Bounds(("D",)), {"SingleInheritance"},
          Demands(frozenset("ABC"), frozenset({("A", "D"), ("D", "B")}), frozenset({("C", "A")})),
          frozenset()))
@example((Bounds(("C",), 1), {"SingleInheritance"},
          Demands(frozenset("AB"), frozenset({("A", "B")}), frozenset({("C", "A")}),
                  frozenset({("A", "x", "C")})),
          frozenset({("B", "x", "A")})))
@example((Bounds(), set(), Demands(frozenset("A"), frozenset({("A", "Z")})), frozenset()))
@example((Bounds(("C",), 2), set(),
          Demands(frozenset("AB"), frozenset({("A", "B")}), singletons=frozenset("A")),
          frozenset()))
@example((Bounds(("A",)), set(), Demands(no_sub=frozenset({("A", "A")})), frozenset()))
def test_pair_bounded_enumeration_equals_filtered_oracle(case):
    # Frames arrive base-valid, so the enumerator is given the domain
    # variants alone; the oracle checks full validity and every demand,
    # the caps on object populations included, and that a system carries
    # the demanded attrs and no other.
    bounds, features, demands, others = case
    valid = composed_valid(features)

    def admitted(sm):
        capped = [c for _, c in sm.class_of if c in demands.singletons]
        return (valid(sm) and demands.sub <= set(sm.sub) and demands.no_sub.isdisjoint(sm.sub)
                and set(sm.attrs) == demands.attrs and len(capped) == len(set(capped)))

    expected = sorted(oracle_enumerate(bounds, demands.classes, admitted, demands.attrs | others),
                      key=canonical_key)
    assert walked(bounds, demands, variant_rules(features)) == expected


@_ORACLE_SETTINGS
@given(_pair_bounded_cases(), st.integers(0, 3), st.integers(0, 8))
@example((Bounds(("C",), 1), {"SingleInheritance"},
          Demands(frozenset("AB"), frozenset({("A", "B")}), singletons=frozenset("BC")), frozenset()), 3, 8)
@example((Bounds(("C",)), set(), Demands(frozenset("A"), attrs=frozenset({("A", "x", "A"), ("A", "x", "C")})),
          frozenset()), 1, 2)
@example((Bounds(), set(), Demands(frozenset("AB")), frozenset()), 0, 1)
def test_a_tally_is_the_walked_count_and_its_first_systems(case, max_objects, k):
    # sem's count and witnesses: the systems the oracle walks, counted, and
    # the first k of them in canonical order, dumped byte for byte.  Three
    # objects are drawn over at most two classes, which keeps the oracle's
    # walk small.
    bounds, features, demands, others = case
    names = demands.classes | set(bounds.extra_class_names)
    bounds = bounds._replace(max_objects=max_objects if len(names) < 3 else min(max_objects, 2))
    valid = composed_valid(features)

    def admitted(sm):
        return valid(sm) and holds(demands, sm) and set(sm.attrs) == demands.attrs

    walked = sorted(oracle_enumerate(bounds, demands.classes, admitted, demands.attrs | others),
                    key=canonical_key)
    count, first = sysmodel.tally(bounds, demands, variant_rules(features), k)
    assert count == len(walked)
    assert "".join(map(dump_system, first)) == "".join(map(dump_system, walked[:k]))


@pytest.mark.parametrize("demands, bounds", [
    # two demanded attrs share a name in one class
    (Demands(frozenset("AB"), attrs=frozenset({("A", "x", "A"), ("A", "x", "B")})), Bounds(("C",))),
    # a demanded attr names a class outside every universe
    (Demands(frozenset("AB"), attrs=frozenset({("A", "x", "Z")})), Bounds(("C",), 2)),
    # the closure of the required pairs holds a forbidden one
    (Demands(frozenset("AB"), frozenset({("A", "B"), ("B", "C")}), frozenset({("A", "C")})),
     Bounds(("C", "D"))),
])
def test_an_empty_query_builds_no_preorder_list(demands, bounds):
    counts = zeroed_counts()
    assert walked(bounds, demands, variant_rules({"SingleInheritance"})) == []
    assert sysmodel.tally(bounds, demands, (), 1) == (0, [])
    assert counts == {"preorders": 0, "refused": 0, "accepted": 0, "least": 0}


def _refusals(classes, demands, valid) -> int:
    """The placements `_preorders` refuses over `classes`: the preorders on
    a prefix of them, within the demanded pairs, that break `valid` where
    the same relation less the prefix's last class meets it."""
    refused = 0
    for k in range(1, len(classes) + 1):
        for sub in oracle_preorders(classes[:k], demands.sub, demands.no_sub):
            placed = [(a, b) for a, b in sub if classes[k - 1] not in (a, b)]
            refused += valid(make_system(classes[:k - 1], placed)) and not valid(make_system(classes[:k], sub))
    return refused


@_ORACLE_SETTINGS
@given(_pair_bounded_cases())
def test_the_record_counts_what_the_oracles_see(case):
    # A full walk builds, in each universe that holds every class the query
    # names and whose least relation breaks no forbidden pair, the
    # preorders whose every placement the domain variants admit, and forms
    # each admitted frame before its populations.  It judges no least frame
    # on its own, so it counts only the placements the build refuses.
    bounds, features, demands, _ = case
    valid = variants_valid(features)
    counts = zeroed_counts()
    systems = walked(bounds, demands, variant_rules(features))
    named = demands.classes.union(*demands.sub, *((o, t) for o, _, t in demands.attrs))
    extras = sorted(set(bounds.extra_class_names) - demands.classes)
    universes = [tuple(sorted(demands.classes.union(chosen)))
                 for r in range(len(extras) + 1) for chosen in combinations(extras, r)]
    clash = len({(o, n) for o, n, _ in demands.attrs}) != len(demands.attrs)
    kept = [] if clash else [u for u in universes
                             if named <= set(u) and _closure(u, demands.sub).isdisjoint(demands.no_sub)]
    built = [sub for u in kept for sub in oracle_preorders(u, demands.sub, demands.no_sub)
             if valid(make_system(u, sub))]
    refused = sum(_refusals(u, demands, valid) for u in kept)
    assert counts == {"preorders": len(built), "refused": refused,
                      "accepted": sum(not sm.objects for sm in systems), "least": 0}
    before = dict(counts)
    sysmodel.first_system(bounds, demands, variant_rules(features))
    assert counts["least"] - before["least"] == (counts["preorders"] == before["preorders"])


_ROOT = Path(__file__).resolve().parents[1]
# The "Enumeration counts" pins of CI: a pass's counts, the change side of
# the BENCH file that recorded them.
_PINS = [("sem-enum", seed, "BENCH_placements.json") for seed in range(71, 81)]
_PINS.append(("analyze-mix", 71, "BENCH_placements.json"))


@pytest.mark.parametrize("workload, seed, bench", _PINS)
def test_a_benchmark_pass_counts_what_its_bench_file_pins(tmp_path, monkeypatch, workload, seed, bench):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    import workloads

    want = json.loads((_ROOT / bench).read_text())["counts_per_pass"]["workloads"][workload]
    want = want[str(seed)]["change"]
    built = workloads.build(workload, seed, str(tmp_path))
    built.write(tmp_path)
    counts = zeroed_counts()
    for op in built.ops:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()), suppress(SystemExit):
            cli.main(list(op.argv))
    assert {k: counts[k] for k in want} == want


def test_universes_are_formed_one_size_at_a_time(monkeypatch):
    # The first system of a query that names one extra class lies in a
    # universe with one extra, so no larger subset of the extras is formed.
    sizes = []

    def recorded(extras, size):
        sizes.append(size)
        return combinations(extras, size)

    monkeypatch.setattr(sysmodel, "combinations", recorded)
    bounds = Bounds(tuple(f"X{i}" for i in range(12)))
    first = sysmodel.first_system(bounds, Demands(frozenset("A"), frozenset({("A", "X3")})), ())
    assert first == make_system(("A", "X3"), {("A", "A"), ("A", "X3"), ("X3", "X3")})
    assert sizes == [0, 1]


def test_populations_are_formed_after_the_first_frame(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return product(*args, **kwargs)

    monkeypatch.setattr(sysmodel, "product", counted)
    bounds, demands = Bounds(max_objects=3), Demands(frozenset("ABC"))
    count, first = sysmodel.tally(bounds, demands, (), 1)
    assert first == [make_system("ABC", {("A", "A"), ("B", "B"), ("C", "C")})]
    assert count > 1 and not calls
    _, first = sysmodel.tally(bounds, demands, (), 2)
    assert first[1].objects == ("o1",)
    assert len(calls) == 1


@pytest.mark.parametrize("classes, max_objects, singletons", [
    ("A", 11, ""), ("AB", 10, ""), ("AB", 11, ""), ("AB", 11, "B"), ("ABC", 3, "AC"),
])
def test_populations_are_the_sorted_assignments(classes, max_objects, singletons):
    # From o10 on the objects' names no longer sort in numeric order.
    demands = Demands(frozenset(classes), singletons=frozenset(singletons))
    got = list(sysmodel._populations(tuple(classes), max_objects, demands))
    assert got == oracle_populations(tuple(classes), max_objects, demands)


def _restrict(sm: SystemModelLite, kept: set[str]) -> SystemModelLite:
    return make_system(
        kept,
        ((a, b) for a, b in sm.sub if a in kept and b in kept),
        ((o, n, t) for o, n, t in sm.attrs if o in kept and t in kept),
    )


def test_domain_variants_survive_restriction():
    # first_system searches only the demanded classes when the least frame
    # is refused, which is exact only if each variant accepts the
    # restriction of every frame it accepts.
    demands = Demands(frozenset("ABCD"), attrs=frozenset({("A", "x", "B"), ("D", "y", "C")}))
    assert FRAME_VARIANTS.keys() == DOMAIN_VARIANTS.keys()
    for feature, valid in FRAME_VARIANTS.items():
        frames = [frame for frame in walked(Bounds(), demands, ()) if valid(frame)]
        assert len(frames) > 4, feature
        for frame in frames:
            for size in range(len(frame.classes)):
                for kept in combinations(frame.classes, size):
                    assert valid(_restrict(frame, set(kept))), (feature, frame, kept)


def test_domain_variants_ignore_attrs():
    # The engine offers each relation with the demanded attrs alone,
    # which is exact only if no variant's verdict depends on the attrs.
    frames = walked(Bounds(), Demands(frozenset("ABCD")), ())
    attr_sets = [(), (("A", "x", "B"),), (("A", "x", "B"), ("D", "y", "C")), (("C", "z", "C"),)]
    assert FRAME_VARIANTS.keys() == DOMAIN_VARIANTS.keys()
    for feature, valid in FRAME_VARIANTS.items():
        for frame in frames:
            for attrs in attr_sets:
                assert valid(frame) == valid(frame._replace(attrs=attrs)), (feature, frame, attrs)


@_ORACLE_SETTINGS
@given(_preorder_bounds(), st.permutations("ABCDEFG"), st.sampled_from(sorted(DOMAIN_VARIANTS)))
@example((tuple("ABCDE"), set(), set()), "EDCBAGF", "SingleInheritance")
@example((tuple("ABCD"), {("D", "B"), ("D", "C")}, {("B", "C")}), "GFEDCBA", "SingleInheritance")
def test_placement_rules_are_invariant_under_class_renaming(case, targets, feature):
    # A universe's extras that no demand names are interchangeable only if
    # each rule admits the same relations, up to the renaming, whatever
    # order the renamed classes are placed in.
    classes, must, must_not = case
    mapping = {**dict(zip("ABCDEFG", targets)), "Z": "Z"}

    def renamed(pairs):
        return {(mapping[a], mapping[b]) for a, b in pairs}

    rules = (DOMAIN_VARIANTS[feature],)
    other = tuple(sorted(mapping[c] for c in classes))
    kept = sysmodel._preorders(classes, must, must_not, rules)
    renamed_kept = sysmodel._preorders(other, renamed(must), renamed(must_not), rules)
    assert len(kept) == len(renamed_kept)
    assert ({frozenset(renamed(sub)) for sub in map(sysmodel._decoder(classes), kept)}
            == set(map(frozenset, map(sysmodel._decoder(other), renamed_kept))))


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
    bounds = Bounds(("B", "A"), 2)
    attrs = frozenset({("A", "x", "B"), ("A", "a", "A")})
    assert bounds.describe(attrs) == "extra={A,B};maxObjects=2;attrs={(A,a,A),(A,x,B)}"


def test_bounds_reject_negative_objects():
    with pytest.raises(ValueError):
        Bounds(max_objects=-1)
