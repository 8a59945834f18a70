"""Bounded decision procedures: refinement, consistency, equivalence.

All verdicts are relative to the enumeration bounds they ran with, which the
verdict records.  Universal checks (refinement, equivalence) stop at the
first counterexample; existential checks (consistency) stop at the first
witness.  Because enumeration order is canonical, reported systems are
stable across runs and minimal in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Sequence

from .schema import AstNode
from .semantics import SemanticsConfig, demands_of, query_bounds, valid_predicate
from .sysmodel import Bounds, SystemModelLite, dump_system, enumerate_systems


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


def _query(models, config):
    """Each model's demands, their conjunction, and the bounds and validity
    of a query over the models."""
    demands = [demands_of(m, config) for m in models]
    joint = reduce(or_, demands)
    return demands, joint, query_bounds(config, joint), valid_predicate(config)


def _two_models(m1, m2, config):
    if m1.datatype != m2.datatype:
        raise AnalysisError(
            f"refinement relates models of one language, got "
            f"{m1.datatype} and {m2.datatype}"
        )
    return _query([m1, m2], config)


def check_refinement(
    refined: AstNode, abstract: AstNode, config: SemanticsConfig
) -> AnalysisVerdict:
    """Does every system denoted by `refined` lie in the semantics of
    `abstract`, within bounds?"""
    (refined_demands, abstract_demands), joint, bounds, valid = _two_models(
        refined, abstract, config
    )
    for sm in enumerate_systems(
        bounds, joint.classes, lambda f: refined_demands.frame_holds(f) and valid(f)
    ):
        if refined_demands.caps_hold(sm) and not abstract_demands(sm):
            return AnalysisVerdict("refine", False, bounds, counterexample=sm)
    return AnalysisVerdict("refine", True, bounds)


def check_consistency(models: Sequence[AstNode], config: SemanticsConfig) -> AnalysisVerdict:
    """Is the intersection of the models' semantics nonempty within bounds?
    The models may come from different languages."""
    if not models:
        raise AnalysisError("consistency needs at least one model")
    _, joint, bounds, valid = _query(models, config)
    for sm in enumerate_systems(
        bounds, joint.classes, lambda f: joint.frame_holds(f) and valid(f)
    ):
        if joint.caps_hold(sm):
            return AnalysisVerdict("consistent", True, bounds, witness=sm)
    return AnalysisVerdict("consistent", False, bounds)


def check_equivalence(m1: AstNode, m2: AstNode, config: SemanticsConfig) -> AnalysisVerdict:
    """Mutual refinement, in one scan.  The counterexample is the first
    system of `m1` outside `m2` when there is one, and otherwise the first
    system of `m2` outside `m1`: what refinement each way would report."""
    (d1, d2), joint, bounds, valid = _two_models(m1, m2, config)
    backward = None
    for sm in enumerate_systems(
        bounds, joint.classes, lambda f: (d1.frame_holds(f) or d2.frame_holds(f)) and valid(f)
    ):
        in1, in2 = d1(sm), d2(sm)
        if in1 and not in2:
            return AnalysisVerdict("equiv", False, bounds, counterexample=sm)
        if in2 and not in1 and backward is None:
            backward = sm
    return AnalysisVerdict("equiv", backward is None, bounds, counterexample=backward)
