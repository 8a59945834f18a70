from __future__ import annotations

import pytest

from conftest import golden
from vlang.features import Configuration
from vlang.semantics import SemanticsError, UnboundMappingError
from vlang.sysmodel import NameConventionError, composed_valid
from vlang.theorygen import generate_domain_theory, generate_mapping_theory, write_theory


def _domain_conf(selected):
    return Configuration("c", "SystemModelVar", frozenset(selected))


def _mapping_conf(selected):
    return Configuration("c", "CDSimpSemVar", frozenset(selected))


def test_domain_theory_matches_golden(example_diagrams):
    doc = generate_domain_theory(example_diagrams[0], _domain_conf({"SingleInheritance"}))
    assert doc.render() == golden("SystemModel.thy.txt")


def test_mapping_theory_matches_golden(example_diagrams):
    doc = generate_mapping_theory(example_diagrams[1], _mapping_conf({"MapSuperCDelegate"}))
    assert doc.render() == golden("CDSimpSem.thy.txt")


def test_empty_domain_selection(example_diagrams):
    doc = generate_domain_theory(example_diagrams[0], _domain_conf(set()))
    assert doc.variant_imports == ()
    assert doc.render() == (
        "theory SystemModel imports SystemModel-base\n"
        "begin\n"
        'constdefs "valid sm == valid-base sm"\n'
        "end\n"
    )


def test_direct_variant_import_path(example_diagrams):
    doc = generate_mapping_theory(example_diagrams[1], _mapping_conf({"MapSuperCDirect"}))
    assert doc.variant_imports == ("vMapSuperClasses/MapSuperCDirect",)
    assert "begin end" in doc.render()


def test_unregistered_domain_feature_is_a_name_convention_error(example_diagrams):
    # The diagram would reject Ghost at validation; the generator still guards
    # the name convention for its own pre-condition.
    with pytest.raises(NameConventionError, match="valid-Ghost"):
        generate_domain_theory(example_diagrams[0], _domain_conf({"Ghost"}))


def test_unselected_xor_leaves_mapping_unbound(example_diagrams):
    with pytest.raises(UnboundMappingError, match="mSuperClasses"):
        generate_mapping_theory(example_diagrams[1], _mapping_conf(set()))


def test_unregistered_mapping_feature(example_diagrams):
    from vlang.features import parse_feature_diagram

    diagram = parse_feature_diagram(
        "featurediagram CDSimpSemVar { vp vMap for theory CDSimpSem { "
        "optional feature GhostMapping kind semantic-mapping; } }"
    )
    with pytest.raises(SemanticsError, match="GhostMapping"):
        generate_mapping_theory(
            diagram, Configuration("c", "CDSimpSemVar", frozenset({"GhostMapping"}))
        )


def test_round_trip_coherence(example_diagrams):
    # The conjunction line and the executable composed predicate name the same
    # features in the same order.
    selected = {"SingleInheritance"}
    doc = generate_domain_theory(example_diagrams[0], _domain_conf(selected))
    (body,) = doc.body
    mentioned = [
        part.split()[0].removeprefix("valid-")
        for part in body.split("== ")[1].rstrip('"').split(" ^ ")[1:]
    ]
    assert mentioned == sorted(selected)
    composed_valid(selected)  # resolves exactly the same names without error


def test_rendering_is_deterministic(example_diagrams):
    doc1 = generate_domain_theory(example_diagrams[0], _domain_conf({"SingleInheritance"}))
    doc2 = generate_domain_theory(example_diagrams[0], _domain_conf({"SingleInheritance"}))
    assert doc1.render() == doc2.render()


def test_write_theory_uses_lf_and_filename(tmp_path, example_diagrams):
    doc = generate_domain_theory(example_diagrams[0], _domain_conf({"SingleInheritance"}))
    path = write_theory(doc, tmp_path / "gen")
    assert path.name == "SystemModel.thy.txt"
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == golden("SystemModel.thy.txt")
