"""Bounded decision procedures: refinement, consistency, equivalence.

All verdicts are relative to the enumeration bounds they ran with, which the
verdict records.  Universal checks (refinement, equivalence) stop at the
first counterexample; existential checks (consistency) stop at the first
witness.  Because enumeration order is canonical, reported systems are
stable across runs and minimal in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .schema import AstNode
from .semantics import (
    DEFAULT_MAPPING_VARIANTS,
    MappingVariantRegistry,
    SemanticsConfig,
    mapping_predicate,
    mentioned_class_names,
    valid_predicate,
)
from .sysmodel import (
    DEFAULT_DOMAIN_VARIANTS,
    Bounds,
    DomainVariantRegistry,
    SystemModelLite,
    dump_system,
    enumerate_systems,
)


class AnalysisError(Exception):
    pass


@dataclass(frozen=True)
class AnalysisVerdict:
    kind: str  # "refine" | "consistent" | "equiv"
    holds: bool
    bounds_used: Bounds
    witness: SystemModelLite | None = None
    counterexample: SystemModelLite | None = None

    def report(self) -> str:
        lines = [
            f"RESULT holds={'true' if self.holds else 'false'} "
            f"kind={self.kind} bounds={self.bounds_used.describe()}"
        ]
        if self.witness is not None:
            lines.append("WITNESS")
            lines.append(dump_system(self.witness).rstrip("\n"))
        if self.counterexample is not None:
            lines.append("COUNTEREXAMPLE")
            lines.append(dump_system(self.counterexample).rstrip("\n"))
        return "\n".join(lines) + "\n"


def _registries(domain_registry, mapping_registry):
    return (
        domain_registry or DEFAULT_DOMAIN_VARIANTS,
        mapping_registry or DEFAULT_MAPPING_VARIANTS,
    )


def _two_models(m1, m2, config, domain_registry, mapping_registry):
    """Required classes, validity and the two mapping predicates of a
    refinement or equivalence query."""
    if m1.datatype != m2.datatype:
        raise AnalysisError(
            f"refinement relates models of one language, got "
            f"{m1.datatype} and {m2.datatype}"
        )
    dom, mapr = _registries(domain_registry, mapping_registry)
    required = sorted(mentioned_class_names(m1) | mentioned_class_names(m2))
    return (
        required,
        valid_predicate(config, dom),
        mapping_predicate(m1, config, mapr),
        mapping_predicate(m2, config, mapr),
    )


def check_refinement(
    refined: AstNode,
    abstract: AstNode,
    config: SemanticsConfig,
    *,
    domain_registry: DomainVariantRegistry | None = None,
    mapping_registry: MappingVariantRegistry | None = None,
) -> AnalysisVerdict:
    """Does every system denoted by `refined` lie in the semantics of
    `abstract`, within bounds?"""
    required, valid, accepts_refined, accepts_abstract = _two_models(
        refined, abstract, config, domain_registry, mapping_registry
    )
    for sm in enumerate_systems(
        config.bounds, required, lambda f: accepts_refined(f) and valid(f)
    ):
        if accepts_refined(sm) and not accepts_abstract(sm):
            return AnalysisVerdict("refine", False, config.bounds, counterexample=sm)
    return AnalysisVerdict("refine", True, config.bounds)


def check_consistency(
    models: Sequence[AstNode],
    config: SemanticsConfig,
    *,
    domain_registry: DomainVariantRegistry | None = None,
    mapping_registry: MappingVariantRegistry | None = None,
) -> AnalysisVerdict:
    """Is the intersection of the models' semantics nonempty within bounds?
    The models may come from different languages."""
    if not models:
        raise AnalysisError("consistency needs at least one model")
    dom, mapr = _registries(domain_registry, mapping_registry)
    required: set[str] = set()
    for m in models:
        required |= mentioned_class_names(m)
    valid = valid_predicate(config, dom)
    predicates = [mapping_predicate(m, config, mapr) for m in models]

    def accepts(sm: SystemModelLite) -> bool:
        return all(p(sm) for p in predicates)

    for sm in enumerate_systems(
        config.bounds, sorted(required), lambda f: accepts(f) and valid(f)
    ):
        if accepts(sm):
            return AnalysisVerdict("consistent", True, config.bounds, witness=sm)
    return AnalysisVerdict("consistent", False, config.bounds)


def check_equivalence(
    m1: AstNode,
    m2: AstNode,
    config: SemanticsConfig,
    *,
    domain_registry: DomainVariantRegistry | None = None,
    mapping_registry: MappingVariantRegistry | None = None,
) -> AnalysisVerdict:
    """Mutual refinement, in one scan.  The counterexample is the first
    system of `m1` outside `m2` when there is one, and otherwise the first
    system of `m2` outside `m1`: what refinement each way would report."""
    required, valid, accepts1, accepts2 = _two_models(
        m1, m2, config, domain_registry, mapping_registry
    )
    backward = None
    for sm in enumerate_systems(
        config.bounds, required, lambda f: (accepts1(f) or accepts2(f)) and valid(f)
    ):
        in1, in2 = accepts1(sm), accepts2(sm)
        if in1 and not in2:
            return AnalysisVerdict("equiv", False, config.bounds, counterexample=sm)
        if in2 and not in1 and backward is None:
            backward = sm
    return AnalysisVerdict("equiv", backward is None, config.bounds, counterexample=backward)
