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

Configurations referring to the same diagram are merged by selection union
before validation (`validated_merge` does both).  Validation checks the
existence of selected features, mandatory features, xor-groups (exactly one
member), and the cross constraints, evaluated over the union of all
selections in scope.  Feature names are treated as globally unique across
the diagrams of one workspace so unqualified constraint targets resolve;
``Diagram.Feature`` is also accepted.

Both formats are read by the shared scanner of vlang.lexer, with ``{ } ; .``
as punctuation and words that may contain ``-`` (``semantic-domain``); names
are IDENTs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexer import IDENT, Cursor, SourceError, scan

FEATURE_KINDS = (
    "presentation",
    "syntactic-stereotype",
    "syntactic-language-parameter",
    "syntactic-context-condition",
    "semantic-domain",
    "semantic-mapping",
)

_WORD = r"[A-Za-z][A-Za-z0-9_-]*"


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

@dataclass(frozen=True)
class Feature:
    name: str
    modality: str  # "optional" | "mandatory" | "xor-member"
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise FeatureModelError(f"unknown feature kind {self.kind}")


@dataclass(frozen=True)
class VariationPoint:
    name: str
    attached_theory: str
    features: tuple[Feature, ...]
    is_xor: bool = False


@dataclass(frozen=True)
class FeatureRef:
    diagram: str | None
    feature: str

    def render(self) -> str:
        return f"{self.diagram}.{self.feature}" if self.diagram else self.feature


@dataclass(frozen=True)
class CrossConstraint:
    source: FeatureRef
    relation: str  # "requires" | "excludes"
    target: FeatureRef


@dataclass(frozen=True)
class FeatureDiagram:
    name: str
    variation_points: tuple[VariationPoint, ...]
    constraints: tuple[CrossConstraint, ...]

    def features(self) -> dict[str, Feature]:
        return {f.name: f for vp in self.variation_points for f in vp.features}

    def vp_of(self, feature_name: str) -> VariationPoint:
        for vp in self.variation_points:
            if any(f.name == feature_name for f in vp.features):
                return vp
        raise KeyError(feature_name)


@dataclass(frozen=True)
class Configuration:
    name: str
    diagram: str
    selected: frozenset[str]


@dataclass(frozen=True, order=True)
class Violation:
    diagram: str
    rule: str
    details: str

    def render(self) -> str:
        return f"VIOLATION {self.diagram} {self.rule} {self.details}"


# ---------------------------------------------------------------------------
# Token access shared by .fd and .conf files
# ---------------------------------------------------------------------------

class _Parser(Cursor):
    error = FeatureSyntaxError

    def __init__(self, source: str):
        super().__init__(scan(source, "{};.", self.error, word=_WORD))

    def _name(self, what: str) -> str:
        tok = self._peek()
        if tok.kind != "ident" or not IDENT.fullmatch(tok.text):
            raise self._err(f"expected {what} name, got {tok.text!r}")
        self._advance()
        return tok.text


# ---------------------------------------------------------------------------
# Feature diagram parsing
# ---------------------------------------------------------------------------

class _DiagramParser(_Parser):
    def parse_all(self) -> list[FeatureDiagram]:
        diagrams = [self._diagram()]
        while self._at("ident", "featurediagram"):
            diagrams.append(self._diagram())
        tok = self._peek()
        if tok.kind != "eof":
            raise self._err(f"trailing input {tok.text!r}")
        return diagrams

    def _diagram(self) -> FeatureDiagram:
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
                raise self._err(f"expected 'vp' or 'constraint', got {self._peek().text!r}")
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
                modality = self._advance().text
                features.append(self._feature(modality))
            else:
                raise self._err(
                    f"expected 'optional', 'mandatory' or 'xor', got {self._peek().text!r}"
                )
        self._take("punct", "}")
        return VariationPoint(name, theory, tuple(features), is_xor)

    def _xor_group(self) -> list[Feature]:
        xor_tok = self._peek()
        self._take("ident", "xor")
        self._take("punct", "{")
        members: list[Feature] = []
        while not self._at("punct", "}"):
            members.append(self._feature("xor-member"))
        self._take("punct", "}")
        if len(members) < 2:
            raise self._err("xor-group needs at least 2 members", xor_tok)
        return members

    def _feature(self, modality: str) -> Feature:
        self._take("ident", "feature")
        name = self._name("feature")
        self._take("ident", "kind")
        kind_tok = self._peek()
        if kind_tok.kind != "ident" or kind_tok.text not in FEATURE_KINDS:
            raise self._err(
                f"expected one of {', '.join(FEATURE_KINDS)}, got {kind_tok.text!r}"
            )
        self._advance()
        self._take("punct", ";")
        return Feature(name, modality, kind_tok.text)

    def _constraint(self) -> CrossConstraint:
        self._take("ident", "constraint")
        source = self._feature_ref()
        rel_tok = self._peek()
        if rel_tok.kind != "ident" or rel_tok.text not in ("requires", "excludes"):
            raise self._err(f"expected 'requires' or 'excludes', got {rel_tok.text!r}")
        self._advance()
        target = self._feature_ref()
        self._take("punct", ";")
        return CrossConstraint(source, rel_tok.text, target)

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


def parse_feature_diagram(source: str) -> FeatureDiagram:
    """Parse a .fd source declaring exactly one diagram."""
    diagrams = parse_feature_diagrams(source)
    if len(diagrams) != 1:
        raise FeatureModelError(f"expected exactly one diagram, found {len(diagrams)}")
    return diagrams[0]


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

class _ConfigParser(_Parser):
    def parse_all(self) -> list[Configuration]:
        configs = [self._configuration()]
        while self._at("ident", "configuration"):
            configs.append(self._configuration())
        tok = self._peek()
        if tok.kind != "eof":
            raise self._err(f"trailing input {tok.text!r}")
        return configs

    def _configuration(self) -> Configuration:
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


def parse_configuration(source: str) -> Configuration:
    configs = parse_configurations(source)
    if len(configs) != 1:
        raise FeatureModelError(
            f"expected exactly one configuration, found {len(configs)}"
        )
    return configs[0]


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


def _resolve(
    ref: FeatureRef,
    declared_in: str,
    diagrams_by_name: dict[str, FeatureDiagram],
    feature_home: dict[str, str],
) -> tuple[str, str]:
    """Resolve a constraint reference to (diagram name, feature name)."""
    if ref.diagram is not None:
        diagram = diagrams_by_name.get(ref.diagram)
        if diagram is None:
            raise ResolutionError(
                f"constraint in {declared_in} references diagram {ref.diagram} "
                "which is not in scope"
            )
        if ref.feature not in diagram.features():
            raise ResolutionError(
                f"constraint in {declared_in} references unknown feature "
                f"{ref.diagram}.{ref.feature}"
            )
        return ref.diagram, ref.feature
    home = feature_home.get(ref.feature)
    if home is None:
        raise ResolutionError(
            f"constraint in {declared_in} references unknown feature {ref.feature}"
        )
    return home, ref.feature


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
        declared = d.features()
        for name in sorted(selected - set(declared)):
            violations.append(Violation(d.name, "unknown-feature", name))
        present = selected & set(declared)
        for vp in d.variation_points:
            member_names = {f.name for f in vp.features}
            chosen = sorted(member_names & present)
            if vp.is_xor and len(chosen) != 1:
                violations.append(
                    Violation(
                        d.name,
                        "xor-exactly-one",
                        f"{vp.name} selected={{{','.join(chosen)}}}",
                    )
                )
            for f in vp.features:
                if f.modality == "mandatory" and f.name not in present:
                    violations.append(Violation(d.name, "mandatory-missing", f.name))

    union = {
        (diagram, feature)
        for diagram, selected in selections.items()
        for feature in selected
    }

    for d in diagrams:
        for c in d.constraints:
            src = _resolve(c.source, d.name, diagrams_by_name, feature_home)
            tgt = _resolve(c.target, d.name, diagrams_by_name, feature_home)
            if c.relation == "requires" and src in union and tgt not in union:
                violations.append(
                    Violation(
                        d.name,
                        "requires",
                        f"{c.source.render()} without {c.target.render()}",
                    )
                )
            if c.relation == "excludes" and src in union and tgt in union:
                violations.append(
                    Violation(
                        d.name,
                        "excludes",
                        f"{c.source.render()} with {c.target.render()}",
                    )
                )

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
