from __future__ import annotations

from pathlib import Path

import pytest

from vlang import bundled
from vlang.features import Configuration, FeatureDiagram, parse_configurations, parse_feature_diagrams
from vlang.grammar import parse_grammar
from vlang.semantics import SemanticsConfig
from vlang.sysmodel import Bounds

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def cdsimp():
    return parse_grammar(bundled.CDSIMP_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def cd():
    return parse_grammar(bundled.CD_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def cdassert():
    return parse_grammar(bundled.ASSERTION_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def example_diagrams() -> list[FeatureDiagram]:
    return parse_feature_diagrams(bundled.EXAMPLE_FD_TEXT)


@pytest.fixture(scope="session")
def example_configs() -> list[Configuration]:
    return parse_configurations(bundled.DOMAIN_CONF_TEXT) + parse_configurations(
        bundled.MAPPING_CONF_TEXT
    )


def raw_semantics_config(
    diagrams: list[FeatureDiagram],
    domain_selected: set[str],
    mapping_selected: set[str],
    bounds: Bounds,
) -> SemanticsConfig:
    """Assemble a SemanticsConfig directly, bypassing validation; used to
    probe selections the validator would reject."""
    domain, mapping = diagrams
    return SemanticsConfig(
        domain,
        Configuration("raw-domain", domain.name, frozenset(domain_selected)),
        Configuration("raw-mapping", mapping.name, frozenset(mapping_selected)),
        bounds,
    )
