"""Bounded decision procedures: refinement, consistency, equivalence.

All verdicts are relative to the enumeration bounds they ran with, which the
verdict records.  Consistency is one `enumerate_systems` scan bounded by the
models' joint `Demands`, stopping at its first witness.  Refinement asks for
a system of the refined model that breaks one abstract atom the refined model
lacks, one scan per negated atom, each stopping at its first system.
Equivalence is refinement each way.  Enumeration order is canonical, so
reported systems are stable across runs and minimal in that order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .schema import AstNode
from .semantics import SemanticsConfig, query
from .sysmodel import (
    Bounds, Demands, SystemModelLite, canonical_key, dump_system, enumerate_systems
)


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


def _first(bounds, demands, valid):
    return next(enumerate_systems(bounds, demands, valid), None)


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
    (r, a), joint, bounds, variants = query([refined, abstract], config)
    r |= Demands(joint.classes)
    negated = [Demands(no_sub=frozenset({p})) for p in a.sub - r.sub]
    negated += [Demands(sub=frozenset({p})) for p in a.no_sub - r.no_sub]
    attrs = a.attrs - r.attrs
    caps = sorted(a.singletons - r.singletons) if bounds.max_objects >= 2 else []
    first = _first(bounds, r, variants) if negated or attrs or caps else None
    if first is None or not a.frame_holds(first):
        return AnalysisVerdict("refine", first is None, bounds, counterexample=first)
    if caps:  # the populations of a frame come right after it
        pair = first._replace(objects=("o1", "o2"), class_of=(("o1", caps[0]), ("o2", caps[0])))
        return AnalysisVerdict("refine", False, bounds, counterexample=pair)
    firsts = [_first(bounds, r | n, variants) for n in negated] + [
        _first(bounds, r, lambda f, t=t: t not in f.attrs and variants(f)) for t in attrs
    ]
    counterexample = min(filter(None, firsts), key=canonical_key, default=None)
    return AnalysisVerdict("refine", counterexample is None, bounds, counterexample=counterexample)


def check_consistency(models: Sequence[AstNode], config: SemanticsConfig) -> AnalysisVerdict:
    """Is the intersection of the models' semantics nonempty within bounds?
    The models may come from different languages."""
    if not models:
        raise AnalysisError("consistency needs at least one model")
    _, joint, bounds, variants = query(models, config)
    witness = _first(bounds, joint, variants)
    return AnalysisVerdict("consistent", witness is not None, bounds, witness=witness)


def check_equivalence(m1: AstNode, m2: AstNode, config: SemanticsConfig) -> AnalysisVerdict:
    """Refinement each way, under the same joint bounds.  The counterexample
    is the first system of `m1` outside `m2` when there is one, and
    otherwise the first system of `m2` outside `m1`."""
    forward = check_refinement(m1, m2, config)
    verdict = check_refinement(m2, m1, config) if forward.holds else forward
    return verdict._replace(kind="equiv")
