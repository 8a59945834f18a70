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

A model's mapping predicate is compiled once per query.  Its only clause
that reads objects is the <<singleton>> cap, which holds with no objects, so
it accepts a system's frame (classes, subclassing, attributes) whenever it
accepts any population of that frame; enumeration tests frames with it
before validity, and populations with it alone.

The semantics set of a model is enumerable within bounds and supports
membership queries without materializing the set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .features import Configuration, FeatureDiagram
from .schema import AstNode
from .sysmodel import (
    Attr,
    Bounds,
    DEFAULT_DOMAIN_VARIANTS,
    DomainVariantRegistry,
    SystemModelLite,
    composed_valid,
    enumerate_systems,
)

SUPER_MAPPING_SLOT = "mSuperClasses"
SINGLETON = "singleton"
KNOWN_STEREOTYPES = frozenset({SINGLETON})

SuperMapping = Callable[[str, list[str], SystemModelLite], bool]


class SemanticsError(Exception):
    pass


class UnboundMappingError(SemanticsError):
    """No mapping variant is selected, so a declared mapping function stays
    undefined."""


class UnknownStereotypeWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Super-class mapping variants
# ---------------------------------------------------------------------------

def map_super_direct(cls: str, supers: list[str], sm: SystemModelLite) -> bool:
    return all(s in sm.classes and (cls, s) in sm.sub for s in supers)


def map_super_delegate(cls: str, supers: list[str], sm: SystemModelLite) -> bool:
    if not supers:
        return True
    if (cls, supers[0]) not in sm.sub:
        return False
    return all(
        s in sm.classes and (cls, f"dlg_{s}", s) in sm.attrs for s in supers[1:]
    )


class MappingVariantRegistry:
    """Super-class mapping functions keyed by feature name."""

    def __init__(self) -> None:
        self._functions: dict[str, SuperMapping] = {}
        self._wants_delegate_attrs: set[str] = set()

    def register(
        self, feature: str, fn: SuperMapping, *, delegate_attrs: bool = False
    ) -> None:
        self._functions[feature] = fn
        if delegate_attrs:
            self._wants_delegate_attrs.add(feature)

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

    def wants_delegate_attrs(self, feature: str) -> bool:
        return feature in self._wants_delegate_attrs


DEFAULT_MAPPING_VARIANTS = MappingVariantRegistry()
DEFAULT_MAPPING_VARIANTS.register("MapSuperCDirect", map_super_direct)
DEFAULT_MAPPING_VARIANTS.register(
    "MapSuperCDelegate", map_super_delegate, delegate_attrs=True
)


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
# Mapping predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MappedClass:
    """A declared class as the mapping reads it: its name, its declared
    supers in order, and whether it carries <<singleton>>."""

    name: str
    supers: list[str]
    singleton: bool


def compile_class(class_node: AstNode) -> MappedClass:
    """Read a class declaration for mapping.  Unknown stereotypes are
    ignored with a warning, once per compiled class."""
    name = class_node.fields["Name"]
    stereotypes = class_stereotypes(class_node)
    for st in sorted(stereotypes - KNOWN_STEREOTYPES):
        warnings.warn(
            f"ignoring unknown stereotype <<{st}>> on class {name}",
            UnknownStereotypeWarning,
            stacklevel=2,
        )
    return MappedClass(name, class_supers(class_node), SINGLETON in stereotypes)


def compile_diagram(diagram: AstNode) -> tuple[MappedClass, ...]:
    return tuple(compile_class(c) for c in class_nodes(diagram))


def map_class(cls: MappedClass, sm: SystemModelLite, variant: SuperMapping) -> bool:
    """The class exists, its supers map under the variant, and a
    <<singleton>> class has at most one object.  The cap is the only clause
    of any mapping that reads objects, and it holds with none."""
    if cls.name not in sm.classes or not variant(cls.name, cls.supers, sm):
        return False
    return not cls.singleton or sum(1 for _, c in sm.class_of if c == cls.name) <= 1


def map_diagram(
    classes: Iterable[MappedClass], sm: SystemModelLite, variant: SuperMapping
) -> bool:
    """Conjunction of map_class over the compiled classes of a minimal class
    diagram."""
    return all(map_class(c, sm, variant) for c in classes)


def compile_assertions(doc: AstNode) -> tuple[tuple[str, str, bool], ...]:
    """(left, right, positive) for each statement of a minimal assertion
    document."""
    return tuple(
        (stmt.fields["left"], stmt.fields["right"], stmt.fields.get("neg") is None)
        for stmt in _statement_list(doc)
    )


def map_assertions(
    statements: Iterable[tuple[str, str, bool]], sm: SystemModelLite
) -> bool:
    """Conjunction over compiled subclass assertions."""
    return all(
        left in sm.classes and right in sm.classes and ((left, right) in sm.sub) == positive
        for left, right, positive in statements
    )


# ---------------------------------------------------------------------------
# Per-language semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LanguageSemantics:
    """The semantic hooks of one language: the class names a minimal model
    mentions, the delegation attributes it demands under the delegate
    variant, and its mapping predicate, compiled once per query."""

    mentions: Callable[[AstNode], frozenset[str]]
    delegate_attrs: Callable[[AstNode], frozenset[Attr]]
    compile: Callable[
        [AstNode, SemanticsConfig, MappingVariantRegistry],
        Callable[[SystemModelLite], bool],
    ]


def _language(model: AstNode) -> LanguageSemantics:
    try:
        return _LANGUAGES[model.datatype]
    except KeyError:
        raise SemanticsError(f"no semantics registered for {model.datatype} models") from None


def mentioned_class_names(model: AstNode) -> frozenset[str]:
    """All class names a minimal model mentions (declared or referenced)."""
    return _language(model).mentions(model)


def delegate_attr_candidates(model: AstNode) -> frozenset[Attr]:
    """Delegation attributes a model demands under the delegate variant."""
    language = _LANGUAGES.get(model.datatype)
    return language.delegate_attrs(model) if language else frozenset()


def _cd_mentions(model: AstNode) -> frozenset[str]:
    names: set[str] = set()
    for c in class_nodes(model):
        names.add(c.fields["Name"])
        names.update(class_supers(c))
    return frozenset(names)


def _cd_delegate_attrs(model: AstNode) -> frozenset[Attr]:
    demands: set[Attr] = set()
    for c in class_nodes(model):
        supers = class_supers(c)
        demands.update((c.fields["Name"], f"dlg_{s}", s) for s in supers[1:])
    return frozenset(demands)


def _cd_compile(model, config, mapping_registry):
    variant = super_mapping_for(config.mapping_config, mapping_registry)
    classes = compile_diagram(model)
    return lambda sm: map_diagram(classes, sm, variant)


def _assertion_mentions(model: AstNode) -> frozenset[str]:
    names: set[str] = set()
    for stmt in _statement_list(model):
        names.add(stmt.fields["left"])
        names.add(stmt.fields["right"])
    return frozenset(names)


def _assertion_compile(model, config, mapping_registry):
    statements = compile_assertions(model)
    return lambda sm: map_assertions(statements, sm)


# Root datatype -> semantics hooks.  Adding a language means adding a row.
_LANGUAGES: dict[str, LanguageSemantics] = {
    "CDDefinition": LanguageSemantics(_cd_mentions, _cd_delegate_attrs, _cd_compile),
    "AssertionDoc": LanguageSemantics(
        _assertion_mentions, lambda model: frozenset(), _assertion_compile
    ),
}


# ---------------------------------------------------------------------------
# Configured semantics
# ---------------------------------------------------------------------------

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
    mapping parts.  Raises SemanticsError when validation fails."""
    from .features import merge_configurations, render_violations, validate_configurations

    merged = merge_configurations(configs)
    violations = validate_configurations(diagrams, merged)
    if violations:
        raise SemanticsError(
            "configuration does not validate:\n" + render_violations(violations)
        )

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


def mapping_predicate(
    model: AstNode,
    config: SemanticsConfig,
    mapping_registry: MappingVariantRegistry = DEFAULT_MAPPING_VARIANTS,
) -> Callable[[SystemModelLite], bool]:
    """The membership predicate the model contributes, per its language,
    compiled once for the query.  It accepts a system's frame (no objects)
    whenever it accepts any population of that frame."""
    return _language(model).compile(model, config, mapping_registry)


@dataclass
class SemanticsSet:
    """The enumerable, bound-relative semantics of one minimal model."""

    model: AstNode
    config: SemanticsConfig
    required_classes: tuple[str, ...]
    _valid: Callable[[SystemModelLite], bool]
    _accepts: Callable[[SystemModelLite], bool]

    def __iter__(self) -> Iterator[SystemModelLite]:
        valid, accepts = self._valid, self._accepts
        for sm in enumerate_systems(
            self.config.bounds, self.required_classes, lambda f: accepts(f) and valid(f)
        ):
            if accepts(sm):
                yield sm

    def count(self) -> int:
        return sum(1 for _ in self)

    def first(self, k: int) -> list[SystemModelLite]:
        return list(islice(iter(self), k))

    def is_empty(self) -> bool:
        return not self.first(1)

    def contains(self, sm: SystemModelLite) -> bool:
        """Membership by predicate, independent of enumeration."""
        return self._valid(sm) and self._accepts(sm)


def compute_sem(
    model: AstNode,
    config: SemanticsConfig,
    *,
    domain_registry: DomainVariantRegistry = DEFAULT_DOMAIN_VARIANTS,
    mapping_registry: MappingVariantRegistry = DEFAULT_MAPPING_VARIANTS,
) -> SemanticsSet:
    """The semantics set of a minimal model under a validated configuration."""
    return SemanticsSet(
        model,
        config,
        tuple(sorted(mentioned_class_names(model))),
        valid_predicate(config, domain_registry),
        mapping_predicate(model, config, mapping_registry),
    )


def auto_attr_candidates(
    models: list[AstNode],
    mapping_config: Configuration,
    mapping_registry: MappingVariantRegistry = DEFAULT_MAPPING_VARIANTS,
) -> frozenset[Attr]:
    """Delegation attributes the models demand, when a variant that uses them
    is selected; empty otherwise."""
    if not any(
        mapping_registry.wants_delegate_attrs(f) for f in mapping_config.selected
    ):
        return frozenset()
    demands: set[Attr] = set()
    for m in models:
        demands |= delegate_attr_candidates(m)
    return frozenset(demands)
