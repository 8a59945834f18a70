"""Composed theory documents for validated configurations.

A domain configuration yields a theory that imports the base theory plus one
``<vp>/<Feature>`` path, named after the variation point declaring the
feature, per selected feature that binds a predicate
(`semantics.bound_domain_features`: every one but those declared with a kind
other than semantic-domain) and defines the composed validity predicate as a
conjunction, bound by name convention: such a feature F must have a
predicate valid-F in `sysmodel.DOMAIN_VARIANTS` (`domain_variant` raises
otherwise).  A mapping configuration yields a theory ``<Language>Sem``,
named after the one ``...Sem`` theory the variation points of its diagram
are attached to (`semantics.language_theory`), that merely combines the
chosen variant theories through imports.  The selection binds the mapping by the rule `sem` uses
(`semantics.super_mapping_for`): every selected feature must bind a function
in `semantics.MAPPING_VARIANTS`, and a selection that binds the declared
mapping function ``mSuperClasses`` zero or two times is an error.

Output is plain text (one definition per line, single spaces, LF), written
as ``<TheoryName>.thy.txt`` and byte-stable for golden tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

from .features import Configuration, FeatureDiagram
from .semantics import SemanticsError, bound_domain_features, language_theory, super_mapping_for
from .sysmodel import domain_variant

DOMAIN_THEORY_NAME = "SystemModel"


class TheoryDoc(NamedTuple):
    name: str
    base_import: str
    variant_imports: tuple[str, ...]  # "<vp>/<Feature>", sorted
    body: tuple[str, ...]

    def render(self) -> str:
        imports = " ".join([self.base_import, *(f'"{p}"' for p in self.variant_imports)])
        lines = [f"theory {self.name} imports {imports}"]
        if self.body:
            lines.append("begin")
            lines.extend(self.body)
            lines.append("end")
        else:
            lines.append("begin end")
        return "\n".join(lines) + "\n"

    @property
    def filename(self) -> str:
        return f"{self.name}.thy.txt"


def _variant_imports(diagram: FeatureDiagram, selected: Iterable[str]) -> tuple[str, ...]:
    vp_of = {f.name: vp.name for vp in diagram.variation_points for f in vp.features}
    pairs = sorted((vp_of[f], f) for f in selected)
    return tuple(f"{vp}/{feature}" for vp, feature in pairs)


def generate_domain_theory(diagram: FeatureDiagram, config: Configuration) -> TheoryDoc:
    """The composed system-model theory for a validated domain configuration."""
    features = bound_domain_features(diagram, config)
    for feature in features:
        domain_variant(feature)
    conjunction = " ".join(["valid-base sm", *(f"^ valid-{f} sm" for f in features)])
    return TheoryDoc(
        DOMAIN_THEORY_NAME,
        f"{DOMAIN_THEORY_NAME}-base",
        _variant_imports(diagram, features),
        (f'constdefs "valid sm == {conjunction}"',),
    )


def generate_mapping_theory(diagram: FeatureDiagram, config: Configuration) -> TheoryDoc:
    """The combined semantic-mapping theory for a validated mapping
    configuration, named after the one ``<Language>Sem`` theory the
    variation points of the diagram are attached to."""
    name = language_theory(diagram)
    if name is None:
        raise SemanticsError(
            f"cannot derive the language name from diagram {diagram.name}; "
            "expected a variation point attached to a <Language>Sem theory"
        )
    super_mapping_for(config)
    return TheoryDoc(name, f"{name}-base", _variant_imports(diagram, config.selected), ())


def write_theory(doc: TheoryDoc, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / doc.filename
    path.write_text(doc.render(), encoding="utf-8", newline="\n")
    return path
