"""Bounded decision procedures: refinement, consistency, equivalence.

All verdicts are relative to the enumeration bounds they ran with, which the
verdict records.  Universal checks (refinement, equivalence) stop at the
first counterexample; existential checks (consistency) stop at the first
witness.  Each check is one `enumerate_systems` scan whose `Demands` bound,
filter and cap it: refinement is bounded by the refined model's demands,
consistency by the joint ones, and equivalence by the atoms both models
share.  Because enumeration order is canonical, reported systems are stable
across runs and minimal in that order.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple, Sequence

from .schema import AstNode
from .semantics import SemanticsConfig, demands_of, query_bounds, variants_predicate
from .sysmodel import Bounds, Demands, SystemModelLite, dump_system, enumerate_systems


class AnalysisError(Exception):
    pass


class AnalysisVerdict(NamedTuple):
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
    """Each model's demands, their conjunction, and the bounds and domain
    variants of a query over the models."""
    demands = [demands_of(m, config) for m in models]
    joint = reduce(or_, demands)
    return demands, joint, query_bounds(config, joint), variants_predicate(config)


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
    `abstract`, within bounds?  The scan walks the refined model's systems
    over a universe holding both models' classes."""
    (r, a), joint, bounds, variants = _two_models(refined, abstract, config)
    systems = enumerate_systems(bounds, r | Demands(joint.classes), variants)
    counterexample = next((sm for sm in systems if not a(sm)), None)
    return AnalysisVerdict("refine", counterexample is None, bounds, counterexample=counterexample)


def check_consistency(models: Sequence[AstNode], config: SemanticsConfig) -> AnalysisVerdict:
    """Is the intersection of the models' semantics nonempty within bounds?
    The models may come from different languages."""
    if not models:
        raise AnalysisError("consistency needs at least one model")
    _, joint, bounds, variants = _query(models, config)
    witness = next(enumerate_systems(bounds, joint, variants), None)
    return AnalysisVerdict("consistent", witness is not None, bounds, witness=witness)


def check_equivalence(m1: AstNode, m2: AstNode, config: SemanticsConfig) -> AnalysisVerdict:
    """Mutual refinement, in one scan.  The counterexample is the first
    system of `m1` outside `m2` when there is one, and otherwise the first
    system of `m2` outside `m1`: what refinement each way would report.
    Only the atoms both models share bound the scan, and a frame either
    model accepts passes its filter, as every such frame must be seen.
    Each model's frame atoms are judged once per frame, which comes right
    before its populations; a population adds only the caps."""
    (d1, d2), joint, bounds, variants = _two_models(m1, m2, config)
    shared = Demands(
        joint.classes, d1.sub & d2.sub, d1.no_sub & d2.no_sub, d1.attrs & d2.attrs,
        d1.singletons & d2.singletons,
    )
    backward = None
    for sm in enumerate_systems(
        bounds, shared, lambda f: (d1.frame_holds(f) or d2.frame_holds(f)) and variants(f)
    ):
        if not sm.objects:
            frame1, frame2 = d1.frame_holds(sm), d2.frame_holds(sm)
        in1 = frame1 and d1.caps_hold(sm.class_of)
        in2 = frame2 and d2.caps_hold(sm.class_of)
        if in1 and not in2:
            return AnalysisVerdict("equiv", False, bounds, counterexample=sm)
        if in2 and not in1 and backward is None:
            backward = sm
    return AnalysisVerdict("equiv", backward is None, bounds, counterexample=backward)
