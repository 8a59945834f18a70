from __future__ import annotations

import random

import pytest

from conftest import raw_semantics_config
from vlang.analysis import AnalysisError, check_consistency, check_equivalence, check_refinement
from vlang.desugar import desugar_to_minimal
from vlang.modelparse import parse_model
from vlang.semantics import compute_sem
from vlang.sysmodel import Bounds, dump_system, make_system


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
            bool(compute_sem(m, config).first(1))
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
