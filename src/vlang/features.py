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
are IDENTs.  The readers read its token columns by index, one function per
construct.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, TypeVar

from .lexer import SourceError, TokenPattern, Tokens, scan, token_pattern

FEATURE_KINDS = (
    "presentation",
    "syntactic-stereotype",
    "syntactic-language-parameter",
    "syntactic-context-condition",
    "semantic-domain",
    "semantic-mapping",
)

_WORD = r"[A-Za-z][A-Za-z0-9_-]*"

_Item = TypeVar("_Item")


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
# Reading .fd and .conf files
#
# Each reader takes the token columns and the index of its first token, and
# returns what it read and the index after it.  A word is compared by its
# text alone: only words have letters, and only "eof" has an empty text.
# ---------------------------------------------------------------------------

def _read_all(
    source: str, keyword: str, read: Callable[[Tokens, int], tuple[_Item, int]]
) -> list[_Item]:
    """The items of a file of one or more, each opened by the word
    `keyword` and read by `read`."""
    tokens = scan(source, _pattern(), FeatureSyntaxError)
    texts = tokens.texts
    item, i = read(tokens, 0)
    items = [item]
    while texts[i] == keyword:
        item, i = read(tokens, i)
        items.append(item)
    if texts[i]:
        raise tokens.fail(i, f"trailing input {texts[i]!r}")
    return items


def _name(tokens: Tokens, i: int, what: str) -> str:
    """Token `i`, which must be an IDENT: a word without ``-``."""
    text = tokens.texts[i]
    if tokens.kinds[i] != "ident" or "-" in text:
        raise tokens.fail(i, f"expected {what} name", got=True)
    return text


def _read_diagram(tokens: Tokens, i: int) -> tuple[FeatureDiagram, int]:
    texts, fail = tokens.texts, tokens.fail
    if texts[i] != "featurediagram":
        raise fail(i, "expected 'featurediagram'", got=True)
    name = _name(tokens, i + 1, "diagram")
    if texts[i + 2] != "{":
        raise fail(i + 2, "expected '{'", got=True)
    i += 3
    vps: list[VariationPoint] = []
    constraints: list[CrossConstraint] = []
    while texts[i] != "}":
        if texts[i] == "vp":
            vp, i = _read_variation_point(tokens, i)
            vps.append(vp)
        elif texts[i] == "constraint":
            source, i = _read_ref(tokens, i + 1)
            relation = texts[i]
            if relation != "requires" and relation != "excludes":
                raise fail(i, "expected 'requires' or 'excludes'", got=True)
            target, i = _read_ref(tokens, i + 1)
            if texts[i] != ";":
                raise fail(i, "expected ';'", got=True)
            constraints.append(CrossConstraint(source, relation, target))
            i += 1
        else:
            raise fail(i, "expected 'vp' or 'constraint'", got=True)
    diagram = FeatureDiagram(name, tuple(vps), tuple(constraints))
    _check_diagram(diagram)
    return diagram, i + 1


def _read_variation_point(tokens: Tokens, i: int) -> tuple[VariationPoint, int]:
    texts, fail = tokens.texts, tokens.fail
    name = _name(tokens, i + 1, "variation point")
    if texts[i + 2] != "for":
        raise fail(i + 2, "expected 'for'", got=True)
    if texts[i + 3] != "theory":
        raise fail(i + 3, "expected 'theory'", got=True)
    theory = _name(tokens, i + 4, "theory")
    if texts[i + 5] != "{":
        raise fail(i + 5, "expected '{'", got=True)
    i += 6
    features: list[Feature] = []
    is_xor = False
    while texts[i] != "}":
        word = texts[i]
        if word == "xor":
            if features or is_xor:
                raise fail(
                    i, "a variation point holds either optional/mandatory features or one xor-group"
                )
            opened, is_xor = i, True
            if texts[i + 1] != "{":
                raise fail(i + 1, "expected '{'", got=True)
            i += 2
            while texts[i] != "}":
                feature, i = _read_feature(tokens, i, "xor-member")
                features.append(feature)
            if len(features) < 2:
                raise fail(opened, "xor-group needs at least 2 members")
            i += 1
        elif word == "optional" or word == "mandatory":
            if is_xor:
                raise fail(i, "xor-group may not be mixed with other members")
            feature, i = _read_feature(tokens, i + 1, word)
            features.append(feature)
        else:
            raise fail(i, "expected 'optional', 'mandatory' or 'xor'", got=True)
    return VariationPoint(name, theory, tuple(features), is_xor), i + 1


def _read_feature(tokens: Tokens, i: int, modality: str) -> tuple[Feature, int]:
    texts, fail = tokens.texts, tokens.fail
    if texts[i] != "feature":
        raise fail(i, "expected 'feature'", got=True)
    name = _name(tokens, i + 1, "feature")
    if texts[i + 2] != "kind":
        raise fail(i + 2, "expected 'kind'", got=True)
    kind = texts[i + 3]
    if kind not in FEATURE_KINDS:
        raise fail(i + 3, f"expected one of {', '.join(FEATURE_KINDS)}", got=True)
    if texts[i + 4] != ";":
        raise fail(i + 4, "expected ';'", got=True)
    return Feature(name, modality, kind), i + 5


def _read_ref(tokens: Tokens, i: int) -> tuple[FeatureRef, int]:
    first = _name(tokens, i, "feature")
    if tokens.texts[i + 1] == ".":
        return FeatureRef(first, _name(tokens, i + 2, "feature")), i + 3
    return FeatureRef(None, first), i + 1


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
    return _read_all(source, "featurediagram", _read_diagram)


def _read_configuration(tokens: Tokens, i: int) -> tuple[Configuration, int]:
    texts, fail = tokens.texts, tokens.fail
    if texts[i] != "configuration":
        raise fail(i, "expected 'configuration'", got=True)
    name = _name(tokens, i + 1, "configuration")
    if texts[i + 2] != "for":
        raise fail(i + 2, "expected 'for'", got=True)
    diagram = _name(tokens, i + 3, "diagram")
    if texts[i + 4] != "{":
        raise fail(i + 4, "expected '{'", got=True)
    i += 5
    selected: set[str] = set()
    while texts[i] != "}":
        if texts[i] != "select":
            raise fail(i, "expected 'select'", got=True)
        selected.add(_name(tokens, i + 1, "feature"))
        if texts[i + 2] != ";":
            raise fail(i + 2, "expected ';'", got=True)
        i += 3
    return Configuration(name, diagram, frozenset(selected)), i + 1


def parse_configurations(source: str) -> list[Configuration]:
    """Parse a .conf file, which may declare several configurations."""
    return _read_all(source, "configuration", _read_configuration)


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
