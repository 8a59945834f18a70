"""Set-valued semantics of the bundled languages over the bounded domain.

A model denotes the set of all valid systems its mapping predicate accepts
(loose interpretation: a system may contain classes, subclass pairs,
attributes, and objects the model never mentions).  Class diagrams map each
declared class to an existence condition, a super-class condition picked by
the configured mapping variant, and the constraints of its stereotypes.
Assertion documents map each statement to a (possibly negated) subclass
condition.

Mapping features are bound by name to the function that fills
mSuperClasses in `MAPPING_VARIANTS`; two are bundled:

  MapSuperCDirect    every declared super is a direct subclass target.
  MapSuperCDelegate  subclassing only to the first declared super; each
                     further super S is reached through a delegation
                     attribute dlg_S of target S on the class.

A model is compiled once per query into a `Demands` record: the classes
that must exist, the `sub` pairs that must and must not be present, the
attributes that must be present, and the classes with at most one object.
The record is the model's mapping predicate, and everything a query needs
is read off it: the required classes, the attributes that join the
candidates, the `sub` pairs that bound the enumeration, the frame filter
(`frame_holds`, which never reads objects) and the per-population check
(`caps_hold`, the <<singleton>> cap, which holds with no objects).

The semantics set of a model is enumerable within bounds and supports
membership queries without materializing the set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import islice
from operator import or_
from typing import Callable, Iterator

from .features import Configuration, FeatureDiagram
from .schema import AstNode, required_field
from .sysmodel import (
    Attr,
    Bounds,
    Pair,
    SystemModelLite,
    composed_valid,
    enumerate_systems,
    eval_valid_base,
    variants_valid,
)

SUPER_MAPPING_SLOT = "mSuperClasses"
SINGLETON = "singleton"
KNOWN_STEREOTYPES = frozenset({SINGLETON})

SuperMapping = Callable[[str, list[str]], "Demands"]


class SemanticsError(Exception):
    pass


class UnboundMappingError(SemanticsError):
    """No mapping variant is selected, so a declared mapping function stays
    undefined."""


class UnknownStereotypeWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Demands: what a model's mapping asks of a system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Demands:
    """A conjunction of atoms: each of `classes` exists, each pair of `sub`
    is present and each of `no_sub` absent, each of `attrs` is present, and
    each of `singletons` has at most one object.  Calling it judges a
    system."""

    classes: frozenset[str] = frozenset()
    sub: frozenset[Pair] = frozenset()
    no_sub: frozenset[Pair] = frozenset()
    attrs: frozenset[Attr] = frozenset()
    singletons: frozenset[str] = frozenset()

    def __or__(self, other: Demands) -> Demands:
        """Both sets of demands at once."""
        return Demands(
            self.classes | other.classes,
            self.sub | other.sub,
            self.no_sub | other.no_sub,
            self.attrs | other.attrs,
            self.singletons | other.singletons,
        )

    def frame_holds(self, sm: SystemModelLite) -> bool:
        """The atoms on classes, `sub` and attrs hold; objects are not read."""
        sub = set(sm.sub)
        return (
            self.classes.issubset(sm.classes)
            and self.sub <= sub
            and self.no_sub.isdisjoint(sub)
            and self.attrs.issubset(sm.attrs)
        )

    def caps_hold(self, sm: SystemModelLite) -> bool:
        """No two objects share a singleton class."""
        capped = [c for _, c in sm.class_of if c in self.singletons]
        return len(capped) == len(set(capped))

    def __call__(self, sm: SystemModelLite) -> bool:
        return self.frame_holds(sm) and self.caps_hold(sm)


# ---------------------------------------------------------------------------
# Super-class mapping variants
# ---------------------------------------------------------------------------

def map_super_direct(cls: str, supers: list[str]) -> Demands:
    return Demands(frozenset(supers), frozenset((cls, s) for s in supers))


def map_super_delegate(cls: str, supers: list[str]) -> Demands:
    return Demands(
        frozenset(supers),
        frozenset((cls, s) for s in supers[:1]),
        attrs=frozenset((cls, f"dlg_{s}", s) for s in supers[1:]),
    )


# Mapping feature name -> the function it binds to mSuperClasses.
MAPPING_VARIANTS: dict[str, SuperMapping] = {
    "MapSuperCDirect": map_super_direct,
    "MapSuperCDelegate": map_super_delegate,
}


def mapping_variant(feature: str) -> SuperMapping:
    """The super-class mapping bound to mapping feature `feature` by name."""
    try:
        return MAPPING_VARIANTS[feature]
    except KeyError:
        raise SemanticsError(
            f"feature {feature} provides no mapping function to bind "
            f"{SUPER_MAPPING_SLOT}"
        ) from None


def super_mapping_for(config: Configuration) -> SuperMapping:
    """The single super-class mapping bound by a validated mapping
    configuration; every selected feature must bind one."""
    selected = sorted(config.selected)
    functions = [mapping_variant(f) for f in selected]
    if not functions:
        raise UnboundMappingError(
            f"no mapping variant selected; {SUPER_MAPPING_SLOT} remains unbound"
        )
    if len(functions) > 1:
        raise SemanticsError(
            f"{SUPER_MAPPING_SLOT} bound by more than one selected variant: "
            + ", ".join(selected)
        )
    return functions[0]


# ---------------------------------------------------------------------------
# AST access helpers (shape shared by all class-diagram grammars)
# ---------------------------------------------------------------------------

def _statement_list(root: AstNode) -> list[AstNode]:
    lists = [v for v in root.fields.values() if isinstance(v, list)]
    if len(lists) != 1:
        raise SemanticsError(
            f"{root.datatype} has {len(lists)} list fields, expected exactly one"
        )
    return lists[0]


def class_nodes(diagram: AstNode) -> list[AstNode]:
    return _statement_list(diagram)


_field = partial(required_field, error=SemanticsError)


def class_name(class_node: AstNode) -> str:
    return _field(class_node, "Name")


def class_supers(class_node: AstNode) -> list[str]:
    """The declared supers; an option field (`("extends" scl:IDENT)?`)
    holds one name, not a list."""
    supers = class_node.fields.get("scl") or []
    return [supers] if isinstance(supers, str) else list(supers)


def class_stereotypes(class_node: AstNode) -> frozenset[str]:
    return frozenset(class_node.fields.get("stereotypes") or ())


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------

def map_class(class_node: AstNode, variant: SuperMapping) -> Demands:
    """The class exists, its supers map under the variant, and a
    <<singleton>> class has at most one object.  Unknown stereotypes are
    ignored with a warning, once per mapped class."""
    name = class_name(class_node)
    stereotypes = class_stereotypes(class_node)
    for st in sorted(stereotypes - KNOWN_STEREOTYPES):
        warnings.warn(
            f"ignoring unknown stereotype <<{st}>> on class {name}",
            UnknownStereotypeWarning,
            stacklevel=2,
        )
    singletons = frozenset({name}) if SINGLETON in stereotypes else frozenset()
    return Demands(frozenset({name}), singletons=singletons) | variant(
        name, class_supers(class_node)
    )


def map_diagram(diagram: AstNode, variant: SuperMapping) -> Demands:
    """Conjunction of map_class over the classes of a minimal class
    diagram."""
    return reduce(or_, (map_class(c, variant) for c in class_nodes(diagram)), Demands())


def map_assertions(doc: AstNode) -> Demands:
    """Conjunction over the (possibly negated) subclass statements of a
    minimal assertion document."""
    statements = [
        (_field(stmt, "left"), _field(stmt, "right"), stmt.fields.get("neg") is None)
        for stmt in _statement_list(doc)
    ]
    return Demands(
        frozenset(name for left, right, _ in statements for name in (left, right)),
        frozenset((left, right) for left, right, positive in statements if positive),
        frozenset((left, right) for left, right, positive in statements if not positive),
    )


# ---------------------------------------------------------------------------
# Configured semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemanticsConfig:
    """A jointly validated selection of domain and mapping variants plus the
    enumeration bounds.  Build through `make_semantics_config`."""

    domain_diagram: FeatureDiagram
    domain_config: Configuration
    mapping_config: Configuration
    bounds: Bounds


def semantic_diagrams(
    diagrams: list[FeatureDiagram], *, require_both: bool = False
) -> tuple[FeatureDiagram | None, FeatureDiagram | None]:
    """The semantic-domain and the semantic-mapping diagram, None for a role
    no diagram plays.  A diagram's role is the kind of its semantic features;
    a diagram with both kinds, a second diagram of either role, or (with
    `require_both`) a missing role raises SemanticsError."""
    domain, mapping = [], []
    for d in diagrams:
        kinds = {f.kind for f in d.features().values()}
        if "semantic-domain" in kinds and "semantic-mapping" in kinds:
            raise SemanticsError(f"diagram {d.name} mixes domain and mapping features")
        if "semantic-domain" in kinds:
            domain.append(d)
        elif "semantic-mapping" in kinds:
            mapping.append(d)
    if len(domain) > 1 or len(mapping) > 1 or require_both and not (domain and mapping):
        raise SemanticsError(
            f"expected one semantic-domain and one semantic-mapping diagram, "
            f"found {len(domain)} and {len(mapping)}"
        )
    return next(iter(domain), None), next(iter(mapping), None)


def make_semantics_config(
    diagrams: list[FeatureDiagram], merged: list[Configuration], bounds: Bounds
) -> SemanticsConfig:
    """Split merged, validated configurations (`features.validated_merge`)
    into the domain and mapping parts; a diagram without one selects
    nothing."""
    domain, mapping = semantic_diagrams(diagrams, require_both=True)
    configs = {d.name: Configuration(f"empty-{d.name}", d.name, frozenset()) for d in diagrams}
    configs.update((c.diagram, c) for c in merged)
    return SemanticsConfig(domain, configs[domain.name], configs[mapping.name], bounds)


def bound_domain_features(diagram: FeatureDiagram, config: Configuration) -> list[str]:
    """The selected domain features that bind a predicate valid-F, sorted:
    all but those the diagram declares with a kind other than
    semantic-domain (a presentation feature binds nothing)."""
    declared = diagram.features()
    return sorted(
        f for f in config.selected if f not in declared or declared[f].kind == "semantic-domain"
    )


def valid_predicate(config: SemanticsConfig) -> Callable[[SystemModelLite], bool]:
    """Composed validity for the configured semantic domain."""
    return composed_valid(bound_domain_features(config.domain_diagram, config.domain_config))


def variants_predicate(config: SemanticsConfig) -> Callable[[SystemModelLite], bool]:
    """The configured domain variants alone: what validity still asks of a
    frame `enumerate_systems` built, which is base-valid already."""
    return variants_valid(bound_domain_features(config.domain_diagram, config.domain_config))


# Root datatype -> the compile of its language: (model, config) -> Demands.
# Adding a language means adding a row.
_LANGUAGES: dict[str, Callable[[AstNode, SemanticsConfig], Demands]] = {
    "CDDefinition": lambda model, config: map_diagram(
        model, super_mapping_for(config.mapping_config)
    ),
    "AssertionDoc": lambda model, config: map_assertions(model),
}


def demands_of(model: AstNode, config: SemanticsConfig) -> Demands:
    """What the model demands of a system under the configured mapping,
    compiled once for the query."""
    try:
        compile_model = _LANGUAGES[model.datatype]
    except KeyError:
        raise SemanticsError(f"no semantics registered for {model.datatype} models") from None
    return compile_model(model, config)


def query_bounds(config: SemanticsConfig, demands: Demands) -> Bounds:
    """The bounds a query runs with: the configured ones, with the
    attributes the models demand joining the candidates."""
    return replace(
        config.bounds, attr_candidates=config.bounds.attr_candidates | demands.attrs
    )


@dataclass
class SemanticsSet:
    """The enumerable, bound-relative semantics of one minimal model."""

    bounds: Bounds
    demands: Demands
    _variants: Callable[[SystemModelLite], bool]

    def __iter__(self) -> Iterator[SystemModelLite]:
        demands, variants = self.demands, self._variants
        for sm in enumerate_systems(
            self.bounds, demands.classes, lambda f: demands.frame_holds(f) and variants(f),
            demands.sub, demands.no_sub, demands.attrs,
        ):
            if demands.caps_hold(sm):
                yield sm

    def count(self) -> int:
        return sum(1 for _ in self)

    def first(self, k: int) -> list[SystemModelLite]:
        return list(islice(iter(self), k))

    def contains(self, sm: SystemModelLite) -> bool:
        """Membership by predicate, independent of enumeration."""
        return eval_valid_base(sm) and self._variants(sm) and self.demands(sm)


def compute_sem(model: AstNode, config: SemanticsConfig) -> SemanticsSet:
    """The semantics set of a minimal model under a validated configuration."""
    demands = demands_of(model, config)
    return SemanticsSet(query_bounds(config, demands), demands, variants_predicate(config))
