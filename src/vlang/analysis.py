"""Bounded decision procedures: refinement, consistency, equivalence.

All verdicts are relative to the enumeration bounds they ran with, which the
verdict records.  Each analysis asks `first_system` for the first system of
a query in canonical order.  That is the query's least frame, the demanded
classes with the closure of the required pairs and the demanded attrs,
unless the query is empty or the placement rules of the domain variants
refuse that frame; only then are preorders of the demanded classes built,
each placement judged by the rules as it is made.
Consistency asks once, with the models' joint `Demands`.
Refinement asks for a system of the refined model that breaks one abstract
atom the refined model lacks, once per negated atom; an abstract attr the
refined model lacks needs no search, since every frame carries just the
demanded attrs and the refined model's first system lacks it.  Equivalence is
refinement each way.  Reported systems are thus stable across runs and
minimal in canonical order.  As for `semantics.query`, each model's grammar
must pass `semantics.check_semantics`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .lexer import RefusalError
from .schema import AstNode
from .semantics import SemanticsConfig, query
from .sysmodel import Bounds, Demands, SystemModelLite, canonical_key, dump_system, first_system


class AnalysisError(RefusalError):
    pass


class AnalysisVerdict(NamedTuple):
    kind: str  # "refine" | "consistent" | "equiv"
    holds: bool
    bounds_used: Bounds
    demands: Demands  # the query's joint demands
    witness: SystemModelLite | None = None
    counterexample: SystemModelLite | None = None

    def report(self) -> str:
        lines = [
            f"RESULT holds={'true' if self.holds else 'false'} "
            f"kind={self.kind} bounds={self.bounds_used.describe(self.demands.attrs)}"
        ]
        if self.witness is not None:
            lines.append("WITNESS")
            lines.append(dump_system(self.witness).rstrip("\n"))
        if self.counterexample is not None:
            lines.append("COUNTEREXAMPLE")
            lines.append(dump_system(self.counterexample).rstrip("\n"))
        return "\n".join(lines) + "\n"


def check_refinement(
    refined: AstNode, abstract: AstNode, config: SemanticsConfig
) -> AnalysisVerdict:
    """Does every system denoted by `refined` lie in the semantics of
    `abstract`, within bounds?  Over both models' classes, a system of
    `refined` is outside `abstract` iff it breaks an abstract atom `refined`
    lacks: the counterexample is the least first system of such a negation."""
    if refined.datatype != abstract.datatype:
        raise AnalysisError(
            f"refinement relates models of one language, got "
            f"{refined.datatype} and {abstract.datatype}"
        )
    (r, a), joint, variants = query([refined, abstract], config)
    bounds = config.bounds
    r |= Demands(joint.classes)
    negated = [Demands(no_sub=frozenset({p})) for p in a.sub - r.sub]
    negated += [Demands(sub=frozenset({p})) for p in a.no_sub - r.no_sub]
    caps = sorted(a.singletons - r.singletons) if bounds.max_objects >= 2 else []
    first = first_system(bounds, r, variants) if negated or a.attrs - r.attrs or caps else None
    if first is None or not a.frame_holds(first):
        return AnalysisVerdict("refine", first is None, bounds, joint, counterexample=first)
    if caps:  # the populations of a frame come right after it
        pair = first._replace(objects=("o1", "o2"), class_of=(("o1", caps[0]), ("o2", caps[0])))
        return AnalysisVerdict("refine", False, bounds, joint, counterexample=pair)
    firsts = [first_system(bounds, r | n, variants) for n in negated]
    counterexample = min(filter(None, firsts), key=canonical_key, default=None)
    return AnalysisVerdict(
        "refine", counterexample is None, bounds, joint, counterexample=counterexample
    )


def check_consistency(models: Sequence[AstNode], config: SemanticsConfig) -> AnalysisVerdict:
    """Is the intersection of the models' semantics nonempty within bounds?
    The models may come from different languages."""
    if not models:
        raise AnalysisError("consistency needs at least one model")
    _, joint, variants = query(models, config)
    witness = first_system(config.bounds, joint, variants)
    return AnalysisVerdict("consistent", witness is not None, config.bounds, joint, witness)


def check_equivalence(m1: AstNode, m2: AstNode, config: SemanticsConfig) -> AnalysisVerdict:
    """Refinement each way, under the same joint bounds.  The counterexample
    is the first system of `m1` outside `m2` when there is one, and
    otherwise the first system of `m2` outside `m1`."""
    forward = check_refinement(m1, m2, config)
    verdict = check_refinement(m2, m1, config) if forward.holds else forward
    return verdict._replace(kind="equiv")
