"""Acceptance suite: one test per criterion, each timed against its budget
and printing one ACCEPTANCE <n> PASS/FAIL line (visible with pytest -s).

Criterion 5 checks what the constraint `MapSuperCDirect excludes
SingleInheritance` guards against.  The semantics is loose, so the diamond
(D extends B, C; both extend A) cannot have empty semantics under the direct
variant with SingleInheritance: the system whose sub relates every pair of
mentioned classes is reflexive and transitive, meets SingleInheritance and
satisfies every declared super.  What that pair does is force all declared
supers of a class into one chain, so every member relates B and C.  The test
pairs the diamond with an assertion that B and C are unrelated: that is
inconsistent under direct mapping with SingleInheritance, and consistent under
the delegate variant and under direct mapping alone.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from itertools import combinations, product

from conftest import golden, raw_semantics_config
from test_features import all_selections, oracle_valid, validator_accepts
from test_sysmodel import oracle_enumerate

from vlang import bundled
from vlang.analysis import check_consistency, check_equivalence, check_refinement
from vlang.desugar import desugar_to_minimal
from vlang.features import (
    Configuration,
    merge_configurations,
    parse_configurations,
    validate_configurations,
)
from vlang.modelparse import parse_model
from vlang.schema import AstNode, derive_schema, dump_ast, dump_schema
from vlang.semantics import compute_sem, demands_of, valid_predicate
from vlang.sysmodel import (
    Bounds,
    dump_system,
    enumerate_systems,
    eval_valid_base,
    make_system,
)
from vlang.theorygen import generate_domain_theory, generate_mapping_theory, write_theory


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {limit_seconds}s"
    )
    print(f"ACCEPTANCE {number} PASS {label} ({elapsed:.2f}s)")


def _cd(grammar, text):
    return desugar_to_minimal(parse_model(grammar, text), grammar)


def _config(example_diagrams, domain=frozenset(), mapping=frozenset({"MapSuperCDelegate"}),
            bounds=Bounds()):
    return raw_semantics_config(example_diagrams, set(domain), set(mapping), bounds)


# ---------------------------------------------------------------------------
# 1. Grammar round-trip
# ---------------------------------------------------------------------------

def test_criterion_1_grammar_round_trip(cdsimp):
    with criterion(1, "grammar round-trip schema dump", 1.0):
        schema = derive_schema(cdsimp)
        assert [dt.name for dt in schema.datatypes] == ["CDDefinition", "CDCClass"]
        assert dump_schema(schema) == golden("cdsimp_schema.txt")


# ---------------------------------------------------------------------------
# 2. Theory generation
# ---------------------------------------------------------------------------

def test_criterion_2_theory_generation(tmp_path, example_diagrams):
    with criterion(2, "generated theory documents", 1.0):
        domain_conf = Configuration(
            "SMConf", "SystemModelVar", frozenset({"SingleInheritance"})
        )
        mapping_conf = Configuration(
            "CDSemConf", "CDSimpSemVar", frozenset({"MapSuperCDelegate"})
        )
        domain_doc = generate_domain_theory(example_diagrams[0], domain_conf)
        mapping_doc = generate_mapping_theory(example_diagrams[1], mapping_conf)
        assert domain_doc.variant_imports == ("vObject/SingleInheritance",)
        assert mapping_doc.variant_imports == ("vMapSuperClasses/MapSuperCDelegate",)
        assert domain_doc.body == (
            'constdefs "valid sm == valid-base sm ^ valid-SingleInheritance sm"',
        )
        assert domain_doc.render() == golden("SystemModel.thy.txt")
        assert mapping_doc.render() == golden("CDSimpSem.thy.txt")
        written_domain = write_theory(domain_doc, tmp_path)
        written_mapping = write_theory(mapping_doc, tmp_path)
        assert written_domain.read_bytes() == golden("SystemModel.thy.txt").encode()
        assert written_mapping.read_bytes() == golden("CDSimpSem.thy.txt").encode()


# ---------------------------------------------------------------------------
# 3. Constraint enforcement
# ---------------------------------------------------------------------------

def test_criterion_3_constraint_enforcement(example_diagrams):
    with criterion(3, "feature constraint enforcement", 1.0):
        good = parse_configurations(bundled.DOMAIN_CONF_TEXT) + parse_configurations(
            bundled.MAPPING_CONF_TEXT
        )
        assert validate_configurations(example_diagrams, merge_configurations(good)) == []

        bad = parse_configurations(bundled.DOMAIN_CONF_TEXT) + parse_configurations(
            bundled.DIRECT_CONF_TEXT
        )
        violations = validate_configurations(example_diagrams, merge_configurations(bad))
        assert len(violations) == 1
        assert violations[0].rule == "excludes"

        checked = 0
        for selection in all_selections(example_diagrams):
            assert validator_accepts(example_diagrams, selection) == oracle_valid(
                example_diagrams, selection
            )
            checked += 1
        assert checked == 2 ** 3  # three features across the two diagrams


# ---------------------------------------------------------------------------
# 4. Enumeration oracle
# ---------------------------------------------------------------------------

def _two_class_naive():
    """Filter all 16 relations over {A,B}^2 by hand-written reflexivity and
    transitivity checks."""
    pairs = list(product(("A", "B"), repeat=2))
    accepted = set()
    for r in range(len(pairs) + 1):
        for sub in combinations(pairs, r):
            chosen = set(sub)
            reflexive = ("A", "A") in chosen and ("B", "B") in chosen
            transitive = all(
                (a, d) in chosen
                for (a, b) in chosen
                for (c, d) in chosen
                if b == c
            )
            if reflexive and transitive:
                accepted.add(make_system({"A", "B"}, chosen))
    return accepted


def test_criterion_4_enumeration_oracle():
    with criterion(4, "enumeration equals the naive oracle", 5.0):
        two = list(enumerate_systems(Bounds(), {"A", "B"}, eval_valid_base))
        naive = _two_class_naive()
        assert len(two) == 4
        assert set(two) == naive

        three = list(enumerate_systems(Bounds(), {"A", "B", "C"}, eval_valid_base))
        expected = oracle_enumerate(Bounds(), {"A", "B", "C"}, eval_valid_base)
        assert set(three) == expected
        assert len(three) == len(expected)  # count pinned by the oracle


# ---------------------------------------------------------------------------
# 5. Variant discrimination
# ---------------------------------------------------------------------------

def test_criterion_5_variant_discrimination(cdsimp, cdassert, example_diagrams):
    with criterion(5, "variant discrimination on the diamond", 10.0):
        diamond = _cd(
            cdsimp,
            "classdiagram M { class D extends B, C; class B extends A; "
            "class C extends A; class A; }",
        )
        single_inheritance = {"SingleInheritance"}

        delegate_config = _config(example_diagrams, domain=single_inheritance)
        delegate_sem = compute_sem(diamond, delegate_config)
        witnesses = delegate_sem.first(1)
        assert witnesses, "delegate semantics must be nonempty"
        witness = witnesses[0]
        assert valid_predicate(delegate_config)(witness)
        assert delegate_sem.contains(witness)

        # Loose semantics keeps the direct + SingleInheritance set nonempty
        # (see the module docstring); the pair instead forbids unrelated B, C.
        unrelated = _cd(cdassert, "assertions S { no sub B C; no sub C B; }")

        direct_config = _config(
            example_diagrams, domain=single_inheritance, mapping={"MapSuperCDirect"}
        )
        direct_sem = set(compute_sem(diamond, direct_config))
        direct_valid = valid_predicate(direct_config)
        direct_accepts = demands_of(diamond, direct_config)
        assert direct_sem == oracle_enumerate(
            direct_config.bounds,
            {"A", "B", "C", "D"},
            lambda sm: direct_valid(sm) and direct_accepts(sm),
        )
        assert len(direct_sem) == 12
        assert all(
            ("B", "C") in sm.sub or ("C", "B") in sm.sub for sm in direct_sem
        ), "direct mapping with SingleInheritance must relate B and C in every member"
        direct = check_consistency([diamond, unrelated], direct_config)
        assert not direct.holds, (
            "expected: under the direct variant with SingleInheritance no member "
            "of the diamond keeps B and C unrelated, since both are declared "
            "supers of D; found witness "
            f"{dump_system(direct.witness).strip()!r}"
        )

        delegate = check_consistency([diamond, unrelated], delegate_config)
        assert delegate.holds, (
            "expected: the delegate variant reaches C through dlg_C, so B and C "
            "may stay unrelated under SingleInheritance"
        )
        assert ("B", "C") not in delegate.witness.sub
        assert ("C", "B") not in delegate.witness.sub
        assert ("D", "dlg_C", "C") in delegate.witness.attrs

        plain_direct = check_consistency(
            [diamond, unrelated], _config(example_diagrams, mapping={"MapSuperCDirect"})
        )
        assert plain_direct.holds, (
            "expected: without SingleInheritance the direct variant lets D's "
            "supers B and C stay unrelated"
        )


# ---------------------------------------------------------------------------
# 6. Refinement / equivalence suite
# ---------------------------------------------------------------------------

def test_criterion_6_refinement_and_equivalence(cdsimp, cd, example_diagrams):
    with criterion(6, "refinement and equivalence suite", 30.0):
        config = _config(example_diagrams)
        refined = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
        abstract = _cd(cdsimp, "classdiagram D { class A; class B; }")
        assert check_refinement(refined, abstract, config).holds
        reverse = check_refinement(abstract, refined, config)
        assert not reverse.holds
        assert reverse.counterexample == make_system(
            {"A", "B"}, {("A", "A"), ("B", "B")}
        )

        sugared = _cd(cd, "classdiagram D { classes A, B; }")
        expanded = _cd(cd, "classdiagram D { class A; class B; }")
        assert check_equivalence(sugared, expanded, config).holds

        import random

        rng = random.Random(20260810)
        for _ in range(50):
            names = ["A", "B", "C"]
            rng.shuffle(names)
            declared = names[: rng.randint(1, 3)]
            statements = []
            for name in declared:
                others = [n for n in declared if n != name]
                supers = rng.sample(others, rng.randint(0, len(others)))
                suffix = f" extends {', '.join(supers)}" if supers else ""
                statements.append(f"class {name}{suffix};")
            model = _cd(cdsimp, "classdiagram R { " + " ".join(statements) + " }")
            assert check_refinement(model, model, config).holds


# ---------------------------------------------------------------------------
# 7. Consistency
# ---------------------------------------------------------------------------

def test_criterion_7_consistency(cdsimp, cdassert, example_diagrams):
    with criterion(7, "multi-language consistency", 5.0):
        config = _config(example_diagrams)
        diagram = _cd(cdsimp, "classdiagram D { class A extends B; class B; }")
        contradiction = _cd(cdassert, "assertions S { no sub A B; }")
        assert not check_consistency([diagram, contradiction], config).holds

        agreement = _cd(cdassert, "assertions S { sub A B; }")
        first = check_consistency([diagram, agreement], config)
        second = check_consistency([diagram, agreement], config)
        assert first.holds and second.holds
        assert dump_system(first.witness) == dump_system(second.witness)
        assert dump_system(first.witness) == (
            "CLASSES A B\nSUB (A,A) (A,B) (B,B)\nATTRS\nOBJECTS\nCLASSOF\n"
        )


# ---------------------------------------------------------------------------
# 8. Presentation invariance
# ---------------------------------------------------------------------------

_CORPUS = (
    "classdiagram D { class A extends B; class B; }",
    "classdiagram D { class A ext B; class B; <<singleton>> class C; }",
    "classdiagram D { classes A, B; class C extends A; }",
    "classdiagram D { }",
)


def _with_singleton_on_first_class(model: AstNode) -> AstNode | None:
    classes = model.fields["classes"]
    if not classes:
        return None
    head = classes[0]
    marked = AstNode(
        head.datatype,
        {**head.fields, "stereotypes": head.fields["stereotypes"] | {"singleton"}},
        pos=head.pos,
    )
    return AstNode(
        model.datatype,
        {**model.fields, "classes": [marked, *classes[1:]]},
        pos=model.pos,
    )


def test_criterion_8_presentation_invariance(cd, example_diagrams):
    with criterion(8, "presentation invariance", 10.0):
        for text in _CORPUS:
            original = parse_model(cd, text)
            for swapped in (
                re.sub(r"\bextends\b", "ext", text),
                re.sub(r"\bext\b", "extends", text),
            ):
                assert dump_ast(parse_model(cd, swapped)) == dump_ast(original)

        config = _config(example_diagrams, bounds=Bounds(max_objects=1))
        for text in _CORPUS:
            model = desugar_to_minimal(parse_model(cd, text), cd)
            marked = _with_singleton_on_first_class(model)
            if marked is None:
                continue
            assert (
                compute_sem(marked, config).count()
                <= compute_sem(model, config).count()
            )
