"""Feature diagrams, configurations, merging, and validation.

Feature diagram files (.fd) declare the variation points of a language
definition, each attached to a theory, with optional/mandatory features or
one xor-group, plus requires/excludes constraints that may reach across
diagrams:

    featurediagram SystemModelVar {
        vp vObject for theory Object {
            optional feature SingleInheritance kind semantic-domain;
        }
        vp vType for theory Type {
        }
    }

Configuration files (.conf) select features of one diagram:

    configuration SMConf for SystemModelVar {
        select SingleInheritance;
    }

A file may declare several diagrams or configurations
(`parse_feature_diagrams`, `parse_configurations`).  Configurations referring
to the same diagram are merged by selection union before validation
(`validated_merge` does both).  Validation checks the existence of selected
features, mandatory features, xor-groups (exactly one member), and the cross
constraints, evaluated over the selections of all diagrams in scope.

Feature names are unique across the diagrams of one workspace, so each
feature has one home diagram.  A constraint reference ``Feature`` names the
feature in its home; ``Diagram.Feature`` must name an in-scope diagram that
is that home.  A constraint is broken when its source is selected and its
target is absent (requires) or present (excludes).

Both formats are read by the shared scanner of vlang.lexer, with ``{ } ; .``
as punctuation and words that may contain ``-`` (``semantic-domain``); names
are IDENTs.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .lexer import IDENT, Cursor, SourceError, TokenPattern, scan, token_pattern

FEATURE_KINDS = (
    "presentation",
    "syntactic-stereotype",
    "syntactic-language-parameter",
    "syntactic-context-condition",
    "semantic-domain",
    "semantic-mapping",
)

_WORD = r"[A-Za-z][A-Za-z0-9_-]*"


@cache
def _pattern() -> TokenPattern:
    """The scanner pattern of .fd and .conf files, built at the first parse."""
    return token_pattern("{};.", _WORD)


class FeatureModelError(Exception):
    pass


class FeatureSyntaxError(FeatureModelError, SourceError):
    """A lexical or syntax error in a .fd or .conf text."""


class ResolutionError(FeatureModelError):
    """A diagram or feature reference cannot be resolved in this workspace."""


class InvalidConfigurationError(Exception):
    """The merged configurations break their feature diagrams; `violations`
    lists each broken rule."""

    def __init__(self, violations: list[Violation]):
        super().__init__("configuration does not validate:\n" + render_violations(violations))
        self.violations = violations


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class _FeatureFields(NamedTuple):
    name: str
    modality: str  # "optional" | "mandatory" | "xor-member"
    kind: str


class Feature(_FeatureFields):
    """A feature; a kind outside FEATURE_KINDS raises FeatureModelError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in FEATURE_KINDS:
            raise FeatureModelError(f"unknown feature kind {self.kind}")
        return self


class VariationPoint(NamedTuple):
    name: str
    attached_theory: str
    features: tuple[Feature, ...]
    is_xor: bool = False


class FeatureRef(NamedTuple):
    diagram: str | None
    feature: str

    def render(self) -> str:
        return f"{self.diagram}.{self.feature}" if self.diagram else self.feature


class CrossConstraint(NamedTuple):
    source: FeatureRef
    relation: str  # "requires" | "excludes"
    target: FeatureRef


class FeatureDiagram(NamedTuple):
    name: str
    variation_points: tuple[VariationPoint, ...]
    constraints: tuple[CrossConstraint, ...]

    def features(self) -> dict[str, Feature]:
        return {f.name: f for vp in self.variation_points for f in vp.features}


class Configuration(NamedTuple):
    name: str
    diagram: str
    selected: frozenset[str]


class Violation(NamedTuple):
    diagram: str
    rule: str
    details: str

    def render(self) -> str:
        return f"VIOLATION {self.diagram} {self.rule} {self.details}"


# ---------------------------------------------------------------------------
# Token access and the file loop shared by .fd and .conf files
# ---------------------------------------------------------------------------

class _Parser(Cursor):
    """A file of one or more items, each opened by the word `keyword` and
    read by `_item`."""

    error = FeatureSyntaxError
    keyword: str

    def __init__(self, source: str):
        super().__init__(scan(source, _pattern(), self.error))

    def parse_all(self) -> list:
        items = [self._item()]
        while self._at("ident", self.keyword):
            items.append(self._item())
        if self.kinds[self.pos] != "eof":
            raise self._err(f"trailing input {self.texts[self.pos]!r}")
        return items

    def _name(self, what: str) -> str:
        text = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or not IDENT.fullmatch(text):
            raise self._err(f"expected {what} name, got {self._got()}")
        self.pos += 1
        return text


# ---------------------------------------------------------------------------
# Feature diagram parsing
# ---------------------------------------------------------------------------

class _DiagramParser(_Parser):
    keyword = "featurediagram"

    def _item(self) -> FeatureDiagram:
        self._take("ident", "featurediagram")
        name = self._name("diagram")
        self._take("punct", "{")
        vps: list[VariationPoint] = []
        constraints: list[CrossConstraint] = []
        while not self._at("punct", "}"):
            if self._at("ident", "vp"):
                vps.append(self._variation_point())
            elif self._at("ident", "constraint"):
                constraints.append(self._constraint())
            else:
                raise self._err(f"expected 'vp' or 'constraint', got {self._got()}")
        self._take("punct", "}")
        diagram = FeatureDiagram(name, tuple(vps), tuple(constraints))
        _check_diagram(diagram)
        return diagram

    def _variation_point(self) -> VariationPoint:
        self._take("ident", "vp")
        name = self._name("variation point")
        self._take("ident", "for")
        self._take("ident", "theory")
        theory = self._name("theory")
        self._take("punct", "{")
        features: list[Feature] = []
        is_xor = False
        while not self._at("punct", "}"):
            if self._at("ident", "xor"):
                if features or is_xor:
                    raise self._err(
                        "a variation point holds either optional/mandatory "
                        "features or one xor-group"
                    )
                is_xor = True
                features.extend(self._xor_group())
            elif self._at("ident", "optional") or self._at("ident", "mandatory"):
                if is_xor:
                    raise self._err("xor-group may not be mixed with other members")
                modality = self._advance()
                features.append(self._feature(modality))
            else:
                raise self._err(
                    f"expected 'optional', 'mandatory' or 'xor', got {self._got()}"
                )
        self._take("punct", "}")
        return VariationPoint(name, theory, tuple(features), is_xor)

    def _xor_group(self) -> list[Feature]:
        opened = self.pos
        self._take("ident", "xor")
        self._take("punct", "{")
        members: list[Feature] = []
        while not self._at("punct", "}"):
            members.append(self._feature("xor-member"))
        self._take("punct", "}")
        if len(members) < 2:
            raise self._err("xor-group needs at least 2 members", opened)
        return members

    def _feature(self, modality: str) -> Feature:
        self._take("ident", "feature")
        name = self._name("feature")
        self._take("ident", "kind")
        kind = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or kind not in FEATURE_KINDS:
            raise self._err(
                f"expected one of {', '.join(FEATURE_KINDS)}, got {self._got()}"
            )
        self._advance()
        self._take("punct", ";")
        return Feature(name, modality, kind)

    def _constraint(self) -> CrossConstraint:
        self._take("ident", "constraint")
        source = self._feature_ref()
        relation = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or relation not in ("requires", "excludes"):
            raise self._err(f"expected 'requires' or 'excludes', got {self._got()}")
        self._advance()
        target = self._feature_ref()
        self._take("punct", ";")
        return CrossConstraint(source, relation, target)

    def _feature_ref(self) -> FeatureRef:
        first = self._name("feature")
        if self._at("punct", "."):
            self._advance()
            return FeatureRef(first, self._name("feature"))
        return FeatureRef(None, first)


def _check_diagram(d: FeatureDiagram) -> None:
    vp_names: set[str] = set()
    feature_names: set[str] = set()
    for vp in d.variation_points:
        if vp.name in vp_names:
            raise FeatureModelError(
                f"duplicate variation point {vp.name} in diagram {d.name}"
            )
        vp_names.add(vp.name)
        for f in vp.features:
            if f.name in feature_names:
                raise FeatureModelError(
                    f"duplicate feature {f.name} in diagram {d.name}"
                )
            feature_names.add(f.name)


def parse_feature_diagrams(source: str) -> list[FeatureDiagram]:
    """Parse a .fd file, which may declare several diagrams."""
    return _DiagramParser(source).parse_all()


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

class _ConfigParser(_Parser):
    keyword = "configuration"

    def _item(self) -> Configuration:
        self._take("ident", "configuration")
        name = self._name("configuration")
        self._take("ident", "for")
        diagram = self._name("diagram")
        self._take("punct", "{")
        selected: set[str] = set()
        while not self._at("punct", "}"):
            self._take("ident", "select")
            selected.add(self._name("feature"))
            self._take("punct", ";")
        self._take("punct", "}")
        return Configuration(name, diagram, frozenset(selected))


def parse_configurations(source: str) -> list[Configuration]:
    """Parse a .conf file, which may declare several configurations."""
    return _ConfigParser(source).parse_all()


# ---------------------------------------------------------------------------
# Merging and validation
# ---------------------------------------------------------------------------

def merge_configurations(configs: list[Configuration]) -> list[Configuration]:
    """Union the selections of configurations referring to the same diagram.

    Commutative and associative; the result has exactly one configuration per
    referenced diagram, sorted by diagram name.
    """
    by_diagram: dict[str, tuple[set[str], set[str]]] = {}
    for c in configs:
        names, selected = by_diagram.setdefault(c.diagram, (set(), set()))
        names.add(c.name)
        selected.update(c.selected)
    return [
        Configuration("+".join(sorted(names)), diagram, frozenset(selected))
        for diagram, (names, selected) in sorted(by_diagram.items())
    ]


def validate_configurations(
    diagrams: list[FeatureDiagram], merged: list[Configuration]
) -> list[Violation]:
    """Check merged configurations against diagram structure and constraints.

    Returns the (possibly empty) violation list, sorted by rendering.
    Unresolvable references raise ResolutionError; feature names duplicated
    across diagrams raise FeatureModelError.
    """
    diagrams_by_name = {d.name: d for d in diagrams}
    if len(diagrams_by_name) != len(diagrams):
        raise FeatureModelError("duplicate diagram names in scope")

    feature_home: dict[str, str] = {}
    for d in diagrams:
        for name in d.features():
            if name in feature_home:
                raise FeatureModelError(
                    f"feature {name} is declared in both {feature_home[name]} "
                    f"and {d.name}; feature names must be workspace-unique"
                )
            feature_home[name] = d.name

    selections: dict[str, frozenset[str]] = {d.name: frozenset() for d in diagrams}
    for c in merged:
        if c.diagram not in diagrams_by_name:
            raise ResolutionError(
                f"configuration {c.name} references diagram {c.diagram} "
                "which is not in scope"
            )
        selections[c.diagram] = c.selected

    violations: list[Violation] = []

    for d in diagrams:
        selected = selections[d.name]
        for name in sorted(n for n in selected if feature_home.get(n) != d.name):
            violations.append(Violation(d.name, "unknown-feature", name))
        for vp in d.variation_points:
            chosen = sorted(f.name for f in vp.features if f.name in selected)
            if vp.is_xor and len(chosen) != 1:
                violations.append(
                    Violation(
                        d.name,
                        "xor-exactly-one",
                        f"{vp.name} selected={{{','.join(chosen)}}}",
                    )
                )
            for f in vp.features:
                if f.modality == "mandatory" and f.name not in selected:
                    violations.append(Violation(d.name, "mandatory-missing", f.name))

    def is_selected(ref: FeatureRef, declared_in: str) -> bool:
        """Whether the feature `ref` names in its home diagram is selected."""
        if ref.diagram is not None and ref.diagram not in diagrams_by_name:
            raise ResolutionError(
                f"constraint in {declared_in} references diagram {ref.diagram} "
                "which is not in scope"
            )
        home = feature_home.get(ref.feature)
        if home is None or ref.diagram not in (None, home):
            raise ResolutionError(
                f"constraint in {declared_in} references unknown feature {ref.render()}"
            )
        return ref.feature in selections[home]

    for d in diagrams:
        for c in d.constraints:
            source, target = is_selected(c.source, d.name), is_selected(c.target, d.name)
            # requires is broken by an absent target, excludes by a present one.
            if source and target == (c.relation == "excludes"):
                word = "with" if target else "without"
                details = f"{c.source.render()} {word} {c.target.render()}"
                violations.append(Violation(d.name, c.relation, details))

    return sorted(violations, key=Violation.render)


def validated_merge(
    diagrams: list[FeatureDiagram], configs: list[Configuration]
) -> list[Configuration]:
    """The merged configurations, or InvalidConfigurationError when they
    break the diagrams."""
    merged = merge_configurations(configs)
    violations = validate_configurations(diagrams, merged)
    if violations:
        raise InvalidConfigurationError(violations)
    return merged


def render_violations(violations: list[Violation]) -> str:
    """One VIOLATION line per entry, lexicographically sorted; bit-exact for
    golden tests."""
    return "\n".join(sorted(v.render() for v in violations))
