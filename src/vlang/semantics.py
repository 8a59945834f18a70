"""Set-valued semantics of the bundled languages over the bounded domain.

A model denotes the set of all valid systems its mapping predicate accepts
(loose interpretation: a system may contain classes, subclass pairs,
attributes, and objects the model never mentions).  Class diagrams map each
declared class to an existence condition, a super-class condition picked by
the configured mapping variant, and the constraints of its stereotypes.
Assertion documents map each statement to a (possibly negated) subclass
condition.

Two super-class mapping variants are bundled:

  MapSuperCDirect    every declared super is a direct subclass target.
  MapSuperCDelegate  subclassing only to the first declared super; each
                     further super S is reached through a delegation
                     attribute dlg_S of target S on the class.

A model is compiled once per query into a `Demands` record: the classes
that must exist, the `sub` pairs that must and must not be present, the
attributes that must be present, and the classes with at most one object.
The record is the model's mapping predicate, and everything a query needs
is read off it: the required classes, the attributes that join the
candidates, the frame filter (`frame_holds`, which never reads objects) and
the per-population check (`caps_hold`, the <<singleton>> cap, which holds
with no objects).

The semantics set of a model is enumerable within bounds and supports
membership queries without materializing the set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice
from operator import or_
from typing import Callable, Iterator

from .features import Configuration, FeatureDiagram, Violation, render_violations
from .schema import AstNode
from .sysmodel import (
    Attr,
    Bounds,
    DEFAULT_DOMAIN_VARIANTS,
    DomainVariantRegistry,
    Pair,
    SystemModelLite,
    composed_valid,
    enumerate_systems,
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


class MappingVariantRegistry:
    """Super-class mapping functions keyed by feature name."""

    def __init__(self) -> None:
        self._functions: dict[str, SuperMapping] = {}

    def register(self, feature: str, fn: SuperMapping) -> None:
        self._functions[feature] = fn

    def has(self, feature: str) -> bool:
        return feature in self._functions

    def resolve(self, feature: str) -> SuperMapping:
        try:
            return self._functions[feature]
        except KeyError:
            raise SemanticsError(
                f"feature {feature} provides no mapping function to bind "
                f"{SUPER_MAPPING_SLOT}"
            ) from None


DEFAULT_MAPPING_VARIANTS = MappingVariantRegistry()
DEFAULT_MAPPING_VARIANTS.register("MapSuperCDirect", map_super_direct)
DEFAULT_MAPPING_VARIANTS.register("MapSuperCDelegate", map_super_delegate)


def super_mapping_for(
    config: Configuration,
    registry: MappingVariantRegistry = DEFAULT_MAPPING_VARIANTS,
) -> SuperMapping:
    """The single super-class mapping bound by a validated mapping
    configuration."""
    bound = [f for f in sorted(config.selected) if registry.has(f)]
    if not bound:
        raise UnboundMappingError(
            f"no mapping variant selected; {SUPER_MAPPING_SLOT} remains unbound"
        )
    if len(bound) > 1:
        raise SemanticsError(
            f"{SUPER_MAPPING_SLOT} bound by more than one selected variant: "
            + ", ".join(bound)
        )
    return registry.resolve(bound[0])


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


def class_supers(class_node: AstNode) -> list[str]:
    return list(class_node.fields.get("scl") or [])


def class_stereotypes(class_node: AstNode) -> frozenset[str]:
    return frozenset(class_node.fields.get("stereotypes") or ())


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------

def map_class(class_node: AstNode, variant: SuperMapping) -> Demands:
    """The class exists, its supers map under the variant, and a
    <<singleton>> class has at most one object.  Unknown stereotypes are
    ignored with a warning, once per mapped class."""
    name = class_node.fields["Name"]
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
        (stmt.fields["left"], stmt.fields["right"], stmt.fields.get("neg") is None)
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

class InvalidConfigurationError(SemanticsError):
    """The merged configurations break their feature diagrams; `violations`
    lists each broken rule."""

    def __init__(self, violations: list[Violation]):
        super().__init__("configuration does not validate:\n" + render_violations(violations))
        self.violations = violations


@dataclass(frozen=True)
class SemanticsConfig:
    """A jointly validated selection of domain and mapping variants plus the
    enumeration bounds.  Build through `make_semantics_config`."""

    domain_diagram: FeatureDiagram
    domain_config: Configuration
    mapping_diagram: FeatureDiagram
    mapping_config: Configuration
    bounds: Bounds


def make_semantics_config(
    diagrams: list[FeatureDiagram],
    configs: list[Configuration],
    bounds: Bounds,
) -> SemanticsConfig:
    """Merge and validate configurations, then split them into the domain and
    mapping parts.  Raises InvalidConfigurationError when validation finds
    violations."""
    from .features import merge_configurations, validate_configurations

    merged = merge_configurations(configs)
    violations = validate_configurations(diagrams, merged)
    if violations:
        raise InvalidConfigurationError(violations)

    def classify(d: FeatureDiagram) -> str | None:
        kinds = {f.kind for f in d.features().values()}
        if "semantic-domain" in kinds and "semantic-mapping" in kinds:
            raise SemanticsError(f"diagram {d.name} mixes domain and mapping features")
        if "semantic-domain" in kinds:
            return "domain"
        if "semantic-mapping" in kinds:
            return "mapping"
        return None

    domain = [d for d in diagrams if classify(d) == "domain"]
    mapping = [d for d in diagrams if classify(d) == "mapping"]
    if len(domain) != 1 or len(mapping) != 1:
        raise SemanticsError(
            f"expected one semantic-domain and one semantic-mapping diagram, "
            f"found {len(domain)} and {len(mapping)}"
        )

    by_diagram = {c.diagram: c for c in merged}

    def config_of(d: FeatureDiagram) -> Configuration:
        return by_diagram.get(d.name, Configuration(f"empty-{d.name}", d.name, frozenset()))

    return SemanticsConfig(
        domain[0], config_of(domain[0]), mapping[0], config_of(mapping[0]), bounds
    )


def valid_predicate(
    config: SemanticsConfig,
    domain_registry: DomainVariantRegistry = DEFAULT_DOMAIN_VARIANTS,
) -> Callable[[SystemModelLite], bool]:
    """Composed validity for the configured semantic domain."""
    domain_features = [
        f
        for f in config.domain_config.selected
        if config.domain_diagram.features()[f].kind == "semantic-domain"
    ]
    return composed_valid(domain_features, domain_registry)


# Root datatype -> the compile of its language: (model, config, mapping
# registry) -> Demands.  Adding a language means adding a row.
_LANGUAGES: dict[
    str, Callable[[AstNode, SemanticsConfig, MappingVariantRegistry], Demands]
] = {
    "CDDefinition": lambda model, config, registry: map_diagram(
        model, super_mapping_for(config.mapping_config, registry)
    ),
    "AssertionDoc": lambda model, config, registry: map_assertions(model),
}


def demands_of(
    model: AstNode,
    config: SemanticsConfig,
    mapping_registry: MappingVariantRegistry = DEFAULT_MAPPING_VARIANTS,
) -> Demands:
    """What the model demands of a system under the configured mapping,
    compiled once for the query."""
    try:
        compile_model = _LANGUAGES[model.datatype]
    except KeyError:
        raise SemanticsError(f"no semantics registered for {model.datatype} models") from None
    return compile_model(model, config, mapping_registry)


def query_bounds(config: SemanticsConfig, demands: Demands) -> Bounds:
    """The bounds a query runs with: the configured ones, with the
    attributes the models demand joining the candidates."""
    return replace(
        config.bounds, attr_candidates=config.bounds.attr_candidates | demands.attrs
    )


@dataclass
class SemanticsSet:
    """The enumerable, bound-relative semantics of one minimal model."""

    model: AstNode
    bounds: Bounds
    demands: Demands
    _valid: Callable[[SystemModelLite], bool]

    def __iter__(self) -> Iterator[SystemModelLite]:
        demands, valid = self.demands, self._valid
        for sm in enumerate_systems(
            self.bounds, demands.classes, lambda f: demands.frame_holds(f) and valid(f)
        ):
            if demands.caps_hold(sm):
                yield sm

    def count(self) -> int:
        return sum(1 for _ in self)

    def first(self, k: int) -> list[SystemModelLite]:
        return list(islice(iter(self), k))

    def contains(self, sm: SystemModelLite) -> bool:
        """Membership by predicate, independent of enumeration."""
        return self._valid(sm) and self.demands(sm)


def compute_sem(
    model: AstNode,
    config: SemanticsConfig,
    *,
    domain_registry: DomainVariantRegistry = DEFAULT_DOMAIN_VARIANTS,
    mapping_registry: MappingVariantRegistry = DEFAULT_MAPPING_VARIANTS,
) -> SemanticsSet:
    """The semantics set of a minimal model under a validated configuration."""
    demands = demands_of(model, config, mapping_registry)
    return SemanticsSet(
        model, query_bounds(config, demands), demands, valid_predicate(config, domain_registry)
    )
