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

A language's compile is bound by its root datatype, the datatype of its
models, and reads the fields of their statements directly.
`check_semantics` checks a grammar's schema once per command for the
fields the compile reads (its root's row of `schema.STATEMENT_FIELDS`); a
model whose grammar has not passed it must not reach the mappings,
`demands_of`, `query` or `compute_sem`.

A model is compiled once per `query` into a `sysmodel.Demands` record: the
classes that must exist, the `sub` pairs that must and must not be present,
the attributes that must be present, and the classes with at most one
object.  The record is the model's mapping predicate.  Its attributes are
the only ones its systems carry, and the record bounds, filters and caps
the enumeration.  So a semantics set is the record and the placement rules
of the selected domain variants, which judge each relation while it is
built, and its size and first members are one `tally` call, which counts
the members without walking them.

The semantics set of a model is enumerable within bounds.
"""

from __future__ import annotations

import warnings
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .features import Configuration, FeatureDiagram
from .lexer import RefusalError
from .schema import AstNode, check_statements, class_supers, statement_nodes
from .sysmodel import Bounds, Demands, PlacementRule, SystemModelLite, tally, variant_rules

if TYPE_CHECKING:
    from .grammar import GrammarDef

SUPER_MAPPING_SLOT = "mSuperClasses"
SINGLETON = "singleton"
KNOWN_STEREOTYPES = frozenset({SINGLETON})

SuperMapping = Callable[[str, list[str]], "Demands"]


class SemanticsError(RefusalError):
    pass


class UnboundMappingError(SemanticsError):
    """No mapping variant is selected, so a declared mapping function stays
    undefined."""


class UnknownStereotypeWarning(UserWarning):
    pass


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
# Mappings
# ---------------------------------------------------------------------------

def map_class(class_node: AstNode, variant: SuperMapping) -> Demands:
    """The class exists, its supers map under the variant, and a
    <<singleton>> class has at most one object.  Unknown stereotypes are
    ignored with a warning, once per mapped class."""
    name = class_node.fields["Name"]
    stereotypes = class_node.fields.get("stereotypes") or frozenset()
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
    diagram, in statement order: each component is one union of the
    classes' components."""
    parts = [map_class(c, variant) for c in statement_nodes(diagram)]
    return Demands(*(frozenset().union(*column) for column in zip(*parts)))


def map_assertions(doc: AstNode) -> Demands:
    """Conjunction over the (possibly negated) subclass statements of a
    minimal assertion document."""
    statements = [
        (stmt.fields["left"], stmt.fields["right"], stmt.fields.get("neg") is None)
        for stmt in statement_nodes(doc)
    ]
    return Demands(
        frozenset(name for left, right, _ in statements for name in (left, right)),
        frozenset((left, right) for left, right, positive in statements if positive),
        frozenset((left, right) for left, right, positive in statements if not positive),
    )


# ---------------------------------------------------------------------------
# Configured semantics
# ---------------------------------------------------------------------------

class SemanticsConfig(NamedTuple):
    """A jointly validated selection of domain and mapping variants plus the
    enumeration bounds.  Build through `make_semantics_config`."""

    domain_diagram: FeatureDiagram
    domain_config: Configuration
    mapping_config: Configuration
    bounds: Bounds


def language_theory(diagram: FeatureDiagram) -> str | None:
    """The one ``<Language>Sem`` theory the variation points of a mapping
    diagram are attached to, None if there is none; points attached to two
    such theories raise SemanticsError."""
    attached = {vp.attached_theory for vp in diagram.variation_points}
    theories = sorted(t for t in attached if t.endswith("Sem"))
    if len(theories) > 1:
        raise SemanticsError(
            f"mapping diagram {diagram.name} attaches variation points to "
            f"more than one language theory: {', '.join(theories)}"
        )
    return next(iter(theories), None)


def semantic_diagrams(
    diagrams: list[FeatureDiagram], *, require_both: bool = False
) -> tuple[FeatureDiagram | None, FeatureDiagram | None]:
    """The semantic-domain and the semantic-mapping diagram, None for a role
    no diagram plays.  A diagram's role is the kind of its semantic features;
    a diagram with both kinds, a mapping diagram attached to two language
    theories (`language_theory`), a second diagram of either role, or (with
    `require_both`) a missing role raises SemanticsError."""
    domain, mapping = [], []
    for d in diagrams:
        kinds = {f.kind for f in d.features().values()}
        if "semantic-domain" in kinds and "semantic-mapping" in kinds:
            raise SemanticsError(f"diagram {d.name} mixes domain and mapping features")
        if "semantic-domain" in kinds:
            domain.append(d)
        elif "semantic-mapping" in kinds:
            language_theory(d)
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


# Root datatype -> the compile of its language: (model, config) -> Demands.
# Adding a language means adding a row here and in `schema.STATEMENT_FIELDS`.
_COMPILES: dict[str, Callable[[AstNode, SemanticsConfig], Demands]] = {
    "CDDefinition": lambda model, config: map_diagram(model, super_mapping_for(config.mapping_config)),
    "AssertionDoc": lambda model, config: map_assertions(model),
}


def _compile(root: str) -> Callable[[AstNode, SemanticsConfig], Demands]:
    try:
        return _COMPILES[root]
    except KeyError:
        raise SemanticsError(f"no semantics registered for {root} models") from None


def check_semantics(grammar: GrammarDef) -> None:
    """Refuse a grammar whose models have no semantics, or whose statements
    lack a field of the type its compile reads (`check_statements`).  Each
    command checks a model's grammar once, before it compiles the model."""
    _compile(grammar.start_production)
    check_statements(grammar.schema, grammar.start_production)


def demands_of(model: AstNode, config: SemanticsConfig) -> Demands:
    """What the model demands of a system under the configured mapping,
    compiled once for the query.  The model's grammar must pass
    `check_semantics`."""
    return _compile(model.datatype)(model, config)


def query(
    models: Sequence[AstNode], config: SemanticsConfig
) -> tuple[list[Demands], Demands, tuple[PlacementRule, ...]]:
    """A query over `models`: each model's demands, their conjunction and
    the placement rules of the domain variants.  Each model's grammar must
    pass `check_semantics`."""
    demands = [demands_of(m, config) for m in models]
    variants = variant_rules(bound_domain_features(config.domain_diagram, config.domain_config))
    return demands, reduce(or_, demands), variants


class SemanticsSet(NamedTuple):
    """The bound-relative semantics of one minimal model."""

    bounds: Bounds
    demands: Demands
    variants: tuple[PlacementRule, ...]

    def tally(self, k: int) -> tuple[int, list[SystemModelLite]]:
        """The number of members and the first `k` of them, counted without
        walking the members (`sysmodel.tally`)."""
        return tally(self.bounds, self.demands, self.variants, k)


def compute_sem(model: AstNode, config: SemanticsConfig) -> SemanticsSet:
    """The semantics set of a minimal model under a validated configuration;
    its grammar must pass `check_semantics`."""
    (demands,), _, variants = query([model], config)
    return SemanticsSet(config.bounds, demands, variants)
