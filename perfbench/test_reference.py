"""Tests of the benchmark's reference against known values.

Run with `python3 -m pytest perfbench/test_reference.py`; the module imports
nothing from vlang.
"""

from reference import (
    Assertion,
    AssertionDoc,
    Bounds,
    ClassDecl,
    ClassDiagram,
    Semantics,
    check_system,
    dump,
    expect_analysis,
    expect_sem,
    labelled_preorders,
    parse_dump,
    valid_systems,
)

DIRECT = Semantics("direct")
DELEGATE_SI = Semantics("delegate", single_inheritance=True)


def test_preorder_counts_match_a000798():
    assert [len(labelled_preorders(n)) for n in range(5)] == [1, 1, 4, 29, 355]


def test_four_unconstrained_classes_with_one_object():
    systems = valid_systems({"A", "B", "C", "D"}, DIRECT, Bounds(max_objects=1), set())
    assert len(systems) == 355 * 5 == 1775
    assert len(set(systems)) == 1775


def test_extra_classes_add_universes():
    # {A}: 1 preorder; {A,X}: 4 preorders; no objects.
    assert len(valid_systems({"A"}, DIRECT, Bounds(0, ("X",)), set())) == 5


def test_sem_count_of_a_chain_with_a_singleton():
    model = ClassDiagram("D", (
        ClassDecl("A", ("B",), ("singleton",)),
        ClassDecl("B"),
    ))
    # Preorders on {A,B} with (A,B): {AB} and {AB,BA}.  Object assignments
    # with at most two objects and at most one in A: 1 + 2 + 3 = 6.
    assert expect_sem(model, DIRECT, Bounds(max_objects=2), 0).stdout.startswith("SEM count=12 ")


def test_diamond_under_delegate_and_single_inheritance_needs_dlg_attribute():
    model = ClassDiagram("Dia", (
        ClassDecl("D", ("B", "C")),
        ClassDecl("B", ("A",)),
        ClassDecl("C", ("A",)),
        ClassDecl("A"),
    ))
    lines = expect_sem(model, DELEGATE_SI, Bounds(max_objects=0), 3).stdout.splitlines()
    assert lines[0].endswith("attrs={(D,dlg_C,C)}")
    witnesses = [parse_dump(lines[i + 1 : i + 6]) for i in range(1, len(lines), 6)]
    assert len(witnesses) == 3
    for s in witnesses:
        assert ("D", "dlg_C", "C") in s.attrs
        assert check_system(s, "member", "sem", [model], DELEGATE_SI, Bounds(0)) == []
        assert parse_dump(dump(s).splitlines()) == s


def test_transitivity_forces_inconsistency():
    chain = ClassDiagram("D", (ClassDecl("A", ("B",)), ClassDecl("B", ("C",)), ClassDecl("C")))
    claim = AssertionDoc("S", (Assertion("A", "C", negated=True),))
    expected = expect_analysis("consistent", [chain, claim], DIRECT, Bounds(0))
    assert expected.exit_code == 1 and expected.stdout.count("\n") == 1


def test_counterexample_check_names_the_broken_clause():
    refined = ClassDiagram("R", (ClassDecl("A"), ClassDecl("B")))
    abstract = ClassDiagram("Q", (ClassDecl("A", ("B",)), ClassDecl("B")))
    expected = expect_analysis("refine", [refined, abstract], DIRECT, Bounds(0))
    lines = expected.stdout.splitlines()
    assert expected.exit_code == 1 and lines[1] == "COUNTEREXAMPLE"
    s = parse_dump(lines[2:])
    assert ("A", "B") not in s.sub
    assert check_system(s, "counterexample", "refine", [refined, abstract], DIRECT, Bounds(0)) == []
    bad = s._replace(sub=s.sub + (("A", "B"),))
    assert "Q accepts the counterexample" in check_system(
        bad, "counterexample", "refine", [refined, abstract], DIRECT, Bounds(0)
    )
