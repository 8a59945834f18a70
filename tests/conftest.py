from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from vlang import bundled
from vlang.features import Configuration, FeatureDiagram, parse_configurations, parse_feature_diagrams
from vlang.grammar import parse_grammar
from vlang.semantics import SemanticsConfig
from vlang.sysmodel import COUNTS, Bounds

GOLDEN_DIR = Path(__file__).parent / "golden"

# Example budgets of the tests that leave `max_examples` to the profile (the
# enumeration oracles in test_sysmodel.py and test_differential.py, the
# full-scan and first-system comparisons in test_analysis.py, the validator
# comparison in test_features.py, the diagram-mapping comparison in
# test_semantics.py; the parser soups, the parser and reader comparisons
# and the model-vocabulary comparison of test_parser_fuzz.py, the scanner
# and position comparisons of test_lexer.py, the desugarer comparison of
# test_desugar.py and the violation-position comparisons of
# test_conditions.py draw five times as many, and so does the file-read
# comparison of test_cli.py, a module CI runs at the default profile only).
# Pick one with `pytest --hypothesis-profile=deep`.
settings.register_profile("default", max_examples=60)
settings.register_profile("deep", max_examples=600)


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


def zeroed_counts() -> dict[str, int]:
    """`sysmodel.COUNTS`, zeroed: the enumeration work from here on."""
    COUNTS.update(dict.fromkeys(COUNTS, 0))
    return COUNTS


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
