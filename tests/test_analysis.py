from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import raw_semantics_config, zeroed_counts
from oracles import (
    composed_valid, first, full_scan_refinement, holds, make_system, oracle_enumerate, valid_single_inheritance,
    walked,
)
from vlang.analysis import AnalysisError, check_consistency, check_equivalence, check_refinement
from vlang.desugar import desugar_to_minimal
from vlang.modelparse import parse_model
from vlang.semantics import compute_sem
from vlang import sysmodel
from vlang.sysmodel import (
    Bounds, Demands, canonical_key, dump_system, first_system, tally, variant_rules,
)


def _cd(grammar, text):
    return desugar_to_minimal(parse_model(grammar, text), grammar)


def _config(example_diagrams, domain=frozenset(), mapping=frozenset({"MapSuperCDirect"}),
            bounds=Bounds()):
    return raw_semantics_config(example_diagrams, set(domain), set(mapping), bounds)


REFL2 = {("A", "A"), ("B", "B")}


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def test_adding_constraints_refines(cdsimp, example_diagrams):
    refined = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    abstract = _cd(cdsimp, "classdiagram D { class A; class B; }")
    verdict = check_refinement(refined, abstract, _config(example_diagrams))
    assert verdict.holds
    assert verdict.kind == "refine"
    assert verdict.counterexample is None


def test_refinement_is_reflexive(cdsimp, example_diagrams):
    m = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    assert check_refinement(m, m, _config(example_diagrams)).holds


def test_reverse_direction_fails_with_minimal_counterexample(cdsimp, example_diagrams):
    refined = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    abstract = _cd(cdsimp, "classdiagram D { class A; class B; }")
    verdict = check_refinement(abstract, refined, _config(example_diagrams))
    assert not verdict.holds
    assert verdict.counterexample == make_system({"A", "B"}, REFL2)


def test_refinement_requires_one_language(cdsimp, cdassert, example_diagrams):
    diagram = _cd(cdsimp, "classdiagram D { class A; }")
    doc = _cd(cdassert, "assertions S { }")
    with pytest.raises(AnalysisError):
        check_refinement(diagram, doc, _config(example_diagrams))


def test_an_abstract_cap_breaks_at_two_objects_of_the_first_frame(cd, example_diagrams):
    # The refined model holds every frame atom of the abstract one but caps
    # neither B nor C: with two objects the first counterexample is the first
    # frame with both objects in B, the least of the capped classes.
    refined = _cd(cd, "classdiagram D { class A extends C; class B; class C; }")
    abstract = _cd(cd, "classdiagram D { class A; <<singleton>> class C; <<singleton>> class B; }")
    one, two = (_config(example_diagrams, bounds=Bounds(max_objects=k)) for k in (1, 2))
    assert check_refinement(refined, abstract, one).holds
    verdict = check_refinement(refined, abstract, two)
    assert verdict.report() == (
        "RESULT holds=false kind=refine bounds=extra={};maxObjects=2;attrs={}\n"
        "COUNTEREXAMPLE\n"
        "CLASSES A B C\n"
        "SUB (A,A) (A,C) (B,B) (C,C)\n"
        "ATTRS\n"
        "OBJECTS o1 o2\n"
        "CLASSOF (o1,B) (o2,B)\n"
    )


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def test_diagram_and_assertion_consistent(cdsimp, cdassert, example_diagrams):
    diagram = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    doc = _cd(cdassert, "assertions S { sub A B; }")
    verdict = check_consistency([diagram, doc], _config(example_diagrams))
    assert verdict.holds
    assert verdict.witness == make_system({"A", "B"}, REFL2 | {("A", "B")})


def test_contradicting_assertion_is_inconsistent(cdsimp, cdassert, example_diagrams):
    diagram = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    doc = _cd(cdassert, "assertions S { no sub A B; }")
    verdict = check_consistency([diagram, doc], _config(example_diagrams))
    assert not verdict.holds
    assert verdict.witness is None


def test_single_empty_diagram_has_minimal_witness(cdsimp, example_diagrams):
    empty = _cd(cdsimp, "classdiagram D { }")
    verdict = check_consistency([empty], _config(example_diagrams))
    assert verdict.holds
    assert verdict.witness == make_system()


def test_single_model_consistency_iff_nonempty_semantics(cdsimp, example_diagrams):
    config = _config(example_diagrams)
    for text in (
        "classdiagram D { class A; }",
        "classdiagram D { class A extends B; class B; }",
        "classdiagram D { }",
    ):
        m = _cd(cdsimp, text)
        assert check_consistency([m], config).holds == (
            bool(first(compute_sem(m, config), 1))
        )


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def test_sugar_form_equivalent_to_expansion(cd, example_diagrams):
    sugared = _cd(cd, "classdiagram D { classes A, B; }")
    expanded = _cd(cd, "classdiagram D { class A; class B; }")
    verdict = check_equivalence(sugared, expanded, _config(example_diagrams))
    assert verdict.holds


def test_declaration_order_is_irrelevant(cdsimp, example_diagrams):
    m1 = _cd(cdsimp, "classdiagram D { class A; class B; }")
    m2 = _cd(cdsimp, "classdiagram D { class B; class A; }")
    assert check_equivalence(m1, m2, _config(example_diagrams)).holds


def test_extra_constraint_breaks_equivalence(cdsimp, example_diagrams):
    m1 = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    m2 = _cd(cdsimp, "classdiagram D { class A; class B; }")
    verdict = check_equivalence(m1, m2, _config(example_diagrams))
    assert not verdict.holds
    assert verdict.counterexample == make_system({"A", "B"}, REFL2)


def test_equivalence_agrees_with_two_refinements(cdsimp, example_diagrams):
    config = _config(example_diagrams)
    texts = [
        "classdiagram D { }",
        "classdiagram D { class A; }",
        "classdiagram D { class A extends B; class B; }",
        "classdiagram D { class B; class A; }",
        # Checked as m1 against `A extends B` as m2, this one has a backward
        # counterexample before its forward one in canonical order; the
        # forward one must still be reported.
        "classdiagram D { class B extends A; class A; }",
        # Checked as m1 against `A extends B`, forward holds and the backward
        # counterexample is followed by a system both accept.
        "classdiagram D { class A extends B; class B extends A; }",
    ]
    models = [_cd(cdsimp, t) for t in texts]
    for m1 in models:
        for m2 in models:
            forward = check_refinement(m1, m2, config)
            backward = check_refinement(m2, m1, config)
            verdict = check_equivalence(m1, m2, config)
            assert verdict.holds == (forward.holds and backward.holds)
            first_failure = forward if not forward.holds else backward
            assert verdict.counterexample == first_failure.counterexample


# ---------------------------------------------------------------------------
# Against the full scan
# ---------------------------------------------------------------------------

@st.composite
def _class_statement(draw, names):
    """A class declaration over `names`, with two supers at most (so the
    delegate mapping demands at most one attribute of it)."""
    supers = draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    singleton = "<<singleton>> " if draw(st.booleans()) else ""
    extends = f" extends {', '.join(supers)}" if supers else ""
    return f"{singleton}class {draw(st.sampled_from(names))}{extends};"


def _assertion_statement(names):
    return st.builds(lambda neg, left, right: f"{'no ' if neg else ''}sub {left} {right};",
                     st.booleans(), st.sampled_from(names), st.sampled_from(names))


@st.composite
def _refinement_cases(draw):
    """Two class diagrams or two assertion documents over at most four class
    names, with the mapping, the domain variants and the bounds: at most two
    objects and at most four classes, an extra one included.  Each model
    takes some statements of one shared list, and often the second differs
    from the first in one statement, so the two share atoms and a refinement
    can fail past its first system.  Every atom kind (a required or
    forbidden pair, an attr, a cap) occurs."""
    names = "ABCD"[: draw(st.integers(1, 4))]
    language, head, statement = draw(st.sampled_from([
        ("cd", "classdiagram D", _class_statement(names)),
        ("cdassert", "assertions S", _assertion_statement(names)),
    ]))
    pool = draw(st.lists(statement, min_size=1, max_size=5))
    masks = st.lists(st.booleans(), min_size=len(pool), max_size=len(pool))
    first = draw(masks)
    flip = draw(st.none() | st.integers(0, len(pool) - 1))
    second = draw(masks) if flip is None else [k != (i == flip) for i, k in enumerate(first)]
    texts = [f"{head} {{ {' '.join(s for s, kept in zip(pool, mask) if kept)} }}"
             for mask in (first, second)]
    extra = ("X",) if len(names) < 4 and draw(st.booleans()) else ()
    return (language, *texts, draw(st.sampled_from(["MapSuperCDirect", "MapSuperCDelegate"])),
            draw(st.sampled_from([(), ("SingleInheritance",)])), extra, draw(st.integers(0, 2)))


# The example budget comes from the hypothesis profile (tests/conftest.py).
@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_refinement_cases())
@example(("cd", "classdiagram D { class A extends C; class B; class C; }",
          "classdiagram D { class A; <<singleton>> class C; <<singleton>> class B; }",
          "MapSuperCDirect", (), (), 2))
@example(("cd", "classdiagram D { class A extends B, C; class B; class C; }",
          "classdiagram D { class A extends C, B; class B; class C; }",
          "MapSuperCDelegate", ("SingleInheritance",), ("X",), 1))
@example(("cdassert", "assertions S { sub A B; no sub B A; }",
          "assertions S { sub B C; no sub A C; }", "MapSuperCDirect", (), (), 0))
@example(("cdassert", "assertions S { sub A A; sub B B; sub C C; }",
          "assertions S { no sub C B; no sub B C; no sub C A; "
          "no sub A C; no sub B A; no sub A B; }",
          "MapSuperCDirect", (), (), 0))
def test_refinement_and_equivalence_equal_the_full_scan(request, example_diagrams, case):
    language, text1, text2, mapping, domain, extra, max_objects = case
    grammar = request.getfixturevalue(language)
    m1, m2 = _cd(grammar, text1), _cd(grammar, text2)
    config = _config(example_diagrams, domain, {mapping}, Bounds(extra, max_objects))
    forward = full_scan_refinement(m1, m2, config)
    verdict = check_refinement(m1, m2, config)
    assert (verdict.holds, verdict.counterexample) == (forward is None, forward)
    expected = forward if forward is not None else full_scan_refinement(m2, m1, config)
    verdict = check_equivalence(m1, m2, config)
    assert (verdict.kind, verdict.holds) == ("equiv", expected is None)
    assert verdict.counterexample == expected


# ---------------------------------------------------------------------------
# Properties over random small diagrams
# ---------------------------------------------------------------------------

def _random_diagram(rng: random.Random) -> str:
    names = ["A", "B", "C"]
    rng.shuffle(names)
    declared = names[: rng.randint(1, 3)]
    statements = []
    for name in declared:
        others = [n for n in declared if n != name]
        supers = rng.sample(others, rng.randint(0, len(others)))
        if supers:
            statements.append(f"class {name} extends {', '.join(supers)};")
        else:
            statements.append(f"class {name};")
    return "classdiagram R { " + " ".join(statements) + " }"


def test_refinement_reflexive_and_transitive_on_random_diagrams(cdsimp, example_diagrams):
    rng = random.Random(20260810)
    config = _config(example_diagrams)
    models = [_cd(cdsimp, _random_diagram(rng)) for _ in range(12)]
    for m in models:
        assert check_refinement(m, m, config).holds
    results = {}
    for i, m1 in enumerate(models):
        for j, m2 in enumerate(models):
            results[i, j] = check_refinement(m1, m2, config).holds
    for i in range(len(models)):
        for j in range(len(models)):
            for k in range(len(models)):
                if results[i, j] and results[j, k]:
                    assert results[i, k]


def test_existential_witnesses_persist_under_larger_bounds(cdsimp, cdassert, example_diagrams):
    diagram = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    doc = _cd(cdassert, "assertions S { sub A B; }")
    small = check_consistency([diagram, doc], _config(example_diagrams))
    larger = check_consistency(
        [diagram, doc],
        _config(example_diagrams, bounds=Bounds(extra_class_names=("C",), max_objects=1)),
    )
    assert small.holds and larger.holds
    assert larger.witness == small.witness  # canonical minimal witness is stable


def test_witness_dump_stable_across_runs(cdsimp, cdassert, example_diagrams):
    diagram = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
    doc = _cd(cdassert, "assertions S { sub A B; }")
    config = _config(example_diagrams)
    first = check_consistency([diagram, doc], config)
    second = check_consistency([diagram, doc], config)
    assert dump_system(first.witness) == dump_system(second.witness)


def test_report_format_and_bounds_recording(cdsimp, example_diagrams):
    bounds = Bounds(extra_class_names=("C",), max_objects=1)
    m = _cd(cdsimp, "classdiagram D { class A; }")
    verdict = check_consistency([m], _config(example_diagrams, bounds=bounds))
    assert verdict.bounds_used == bounds
    report = verdict.report()
    assert report.startswith(
        "RESULT holds=true kind=consistent "
        "bounds=extra={C};maxObjects=1;attrs={}\nWITNESS\n"
    )
    assert report.endswith("\n")


# ---------------------------------------------------------------------------
# The first system of a query
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("demands, bounds", [
    # the closure of the required pairs holds a forbidden one
    (Demands(frozenset("AB"), frozenset({("A", "B"), ("B", "C")}), frozenset({("A", "C")})),
     Bounds(("C",))),
    # two demanded attrs share a name in one class
    (Demands(frozenset("AB"), attrs=frozenset({("A", "x", "A"), ("A", "x", "B")})), Bounds()),
    # a demanded attr names a class outside every universe
    (Demands(frozenset("AB"), attrs=frozenset({("A", "x", "Z")})), Bounds(("C",), 2)),
])
def test_an_empty_query_is_refused_without_enumerating(demands, bounds):
    counts = zeroed_counts()
    assert first_system(bounds, demands, variant_rules({"SingleInheritance"})) is None
    assert counts == {"preorders": 0, "refused": 0, "accepted": 0, "least": 1}


def test_the_closure_of_the_required_pairs_is_the_first_system():
    demands = Demands(frozenset("ABC"), frozenset({("A", "B"), ("B", "C")}), frozenset({("C", "A")}),
                      frozenset({("A", "x", "C")}), frozenset("A"))
    bounds = Bounds(("D",), 2)
    counts = zeroed_counts()
    first = first_system(bounds, demands, ())
    assert counts == {"preorders": 0, "refused": 0, "accepted": 1, "least": 1}
    assert [first] == tally(bounds, demands, (), 1)[1] == [make_system(
        "ABC", {("A", "A"), ("A", "B"), ("A", "C"), ("B", "B"), ("B", "C"), ("C", "C")},
        {("A", "x", "C")})]


def test_a_refused_closure_is_searched_in_the_demanded_universe_only(monkeypatch):
    # SingleInheritance refuses the diamond's closure.  Restricting a system
    # to the demanded classes keeps it valid, so the extra class is not tried.
    demands = Demands(frozenset("ABC"), frozenset({("A", "B"), ("A", "C")}))
    valid = variant_rules({"SingleInheritance"})
    extras, built = [], []
    universes, preorders = sysmodel._universes, sysmodel._preorders

    def recorded_universes(bounds, *rest):
        extras.append(bounds.extra_class_names)
        return universes(bounds, *rest)

    def recorded_preorders(classes, *rest):
        built.append(classes)
        return preorders(classes, *rest)

    monkeypatch.setattr(sysmodel, "_universes", recorded_universes)
    monkeypatch.setattr(sysmodel, "_preorders", recorded_preorders)
    bounds = Bounds(("D",), 1)
    first = first_system(bounds, demands, valid)
    assert (extras, built) == ([()], [tuple("ABC")])
    assert [first] == tally(bounds, demands, valid, 1)[1] == [make_system(
        "ABC", {("A", "A"), ("A", "B"), ("A", "C"), ("B", "B"), ("B", "C"), ("C", "C")})]


def test_each_frame_is_offered_once():
    # SingleInheritance refuses the diamond's closure.  The build keeps only
    # admitted preorders, which leave it out, and offers each of them once;
    # first_system judges the closure once before it builds them.
    demands = Demands(frozenset("ABC"), frozenset({("A", "B"), ("A", "C")}))
    closure = make_system("ABC", {("A", "A"), ("A", "B"), ("A", "C"), ("B", "B"), ("C", "C")})
    rules = variant_rules({"SingleInheritance"})
    counts = zeroed_counts()
    frames = walked(Bounds(), demands, rules)
    assert counts["refused"] > 0 and counts["preorders"] == counts["accepted"] == len(frames) > 1
    assert closure not in frames and not valid_single_inheritance(closure)
    assert len(set(frames)) == len(frames) and all(map(valid_single_inheritance, frames))
    refused = counts["refused"]
    assert first_system(Bounds(), demands, rules) == frames[0]
    assert counts["refused"] == 2 * refused + 1


@st.composite
def _first_system_cases(draw):
    """A query over at most three class names, each demanded, extra or both,
    with up to two objects, and up to two attr triples it does not demand.
    Its pairs and attrs mostly name demanded classes, and otherwise any name,
    extras and a name outside every universe (Z) included; attrs may clash
    on a name.  The frame filter is SingleInheritance or nothing."""
    names = "ABC"[: draw(st.integers(0, 3))]
    roles = [draw(st.sampled_from(("required", "extra", "both"))) for _ in names]
    required = sorted(c for c, role in zip(names, roles) if role != "extra")
    extra = tuple(c for c, role in zip(names, roles) if role != "required")
    anywhere = st.sampled_from(f"{names}Z")
    name = st.sampled_from(required) | anywhere if required else anywhere
    pairs = st.frozensets(st.tuples(name, name), max_size=3)
    triples = st.frozensets(st.tuples(name, st.sampled_from("xy"), name), max_size=2)
    demands = Demands(frozenset(required), draw(pairs), draw(pairs), draw(triples),
                      draw(st.frozensets(st.sampled_from(names), max_size=2)) if names else frozenset())
    bounds = Bounds(extra, draw(st.integers(0, 2)))
    features = draw(st.sampled_from([(), ("SingleInheritance",)]))
    return bounds, demands, features, draw(triples) - demands.attrs


# The example budget comes from the hypothesis profile (tests/conftest.py).
@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_first_system_cases())
@example((Bounds(("C",), 1), Demands(frozenset("AB"), frozenset({("A", "B")})),
          ("SingleInheritance",), frozenset()))
@example((Bounds(("C",), 2), Demands(frozenset("ABC"), frozenset({("A", "B"), ("A", "C")})),
          ("SingleInheritance",), frozenset()))
def test_first_system_equals_the_first_enumerated_and_the_oracle(case):
    bounds, demands, features, others = case
    valid = variant_rules(features)
    first = first_system(bounds, demands, valid)
    assert tally(bounds, demands, valid, 1)[1] == ([] if first is None else [first])
    judge = composed_valid(features)
    systems = oracle_enumerate(bounds, demands.classes, lambda sm: (
        judge(sm) and set(sm.attrs) == demands.attrs and holds(demands, sm)), demands.attrs | others)
    assert first == min(systems, key=canonical_key, default=None)
