"""The bounded semantic domain: finite class structures with subclassing,
attributes, and an object population.

A system is a finite set of class names, a subclassing relation over them,
attributes (owner, name, target class), objects with canonical identifiers
o1..oN, and a total class assignment for the objects.  Base validity demands
a reflexive and transitive subclassing relation on top of the structural
invariants.  Domain variants are extra validity predicates bound to feature
names in `DOMAIN_VARIANTS` (feature F to its predicate valid-F); the composed
predicate is their conjunction with base validity.  Both constrain only a
system's frame: its classes, subclassing and attributes.

`enumerate_systems` walks the systems within given bounds whose subclassing
relation is a preorder (the only ones base validity admits).  It checks a
predicate once per frame and yields every object population of each frame
that passes, in a canonical deterministic order: componentwise by
cardinality, then lexicographically, over the encoding (classes, sub, attrs,
objects, class assignment).  Smaller systems come first, which makes
reported witnesses minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

from .lexer import IDENT

Pair = tuple[str, str]
Attr = tuple[str, str, str]  # (owner class, attribute name, target class)


class NameConventionError(Exception):
    """A selected domain feature F has no predicate valid-F in
    `DOMAIN_VARIANTS`."""


@dataclass(frozen=True)
class SystemModelLite:
    """One bounded semantic-domain structure.

    All components are canonically sorted tuples; build instances through
    `make_system` unless the inputs are already canonical.
    """

    classes: tuple[str, ...]
    sub: tuple[Pair, ...]
    attrs: tuple[Attr, ...]
    objects: tuple[str, ...]
    class_of: tuple[Pair, ...]


def make_system(
    classes: Iterable[str] = (),
    sub: Iterable[Pair] = (),
    attrs: Iterable[Attr] = (),
    objects: Iterable[str] = (),
    class_of: Iterable[Pair] = (),
) -> SystemModelLite:
    return SystemModelLite(
        tuple(sorted(set(classes))),
        tuple(sorted(set(sub))),
        tuple(sorted(set(attrs))),
        tuple(sorted(set(objects))),
        tuple(sorted(set(class_of))),
    )


def canonical_key(sm: SystemModelLite):
    """Sort key realizing the canonical enumeration order."""
    return (
        len(sm.classes),
        sm.classes,
        len(sm.sub),
        sm.sub,
        len(sm.attrs),
        sm.attrs,
        len(sm.objects),
        sm.objects,
        sm.class_of,
    )


def structurally_valid(sm: SystemModelLite) -> bool:
    classes = set(sm.classes)
    for a, b in sm.sub:
        if a not in classes or b not in classes:
            return False
    owned_names: set[Pair] = set()
    for owner, name, target in sm.attrs:
        if owner not in classes or target not in classes or (owner, name) in owned_names:
            return False
        owned_names.add((owner, name))
    objects = set(sm.objects)
    if {o for o, _ in sm.class_of} != objects or len(sm.class_of) != len(objects):
        return False
    for _, c in sm.class_of:
        if c not in classes:
            return False
    return True


def _supers(sm: SystemModelLite) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for a, b in sm.sub:
        out.setdefault(a, set()).add(b)
    return out


def eval_valid_base(sm: SystemModelLite) -> bool:
    """Base validity: structural invariants plus a reflexive and transitive
    subclassing relation."""
    if not structurally_valid(sm):
        return False
    pairs = set(sm.sub)
    if any((c, c) not in pairs for c in sm.classes):
        return False
    supers = _supers(sm)
    for a, bs in supers.items():
        for b in bs:
            for c in supers.get(b, ()):
                if (a, c) not in pairs:
                    return False
    return True


def valid_single_inheritance(sm: SystemModelLite) -> bool:
    """Any two superclasses of one class are themselves related."""
    pairs = set(sm.sub)
    for sups in _supers(sm).values():
        for c2, c3 in combinations(sorted(sups), 2):
            if (c2, c3) not in pairs and (c3, c2) not in pairs:
                return False
    return True


# ---------------------------------------------------------------------------
# Domain variants
# ---------------------------------------------------------------------------

# Feature name F -> its predicate valid-F.  A domain variant constrains a
# system's classes, `sub` and attrs, never its objects: `enumerate_systems`
# evaluates validity once per frame and lets every object population of an
# accepted frame through.
DOMAIN_VARIANTS: dict[str, Callable[[SystemModelLite], bool]] = {
    "SingleInheritance": valid_single_inheritance,
}


def domain_variant(feature: str) -> Callable[[SystemModelLite], bool]:
    """The predicate valid-F bound to domain feature F by name."""
    try:
        return DOMAIN_VARIANTS[feature]
    except KeyError:
        raise NameConventionError(
            f"feature {feature} provides no predicate valid-{feature}"
        ) from None


def composed_valid(selected: Iterable[str]) -> Callable[[SystemModelLite], bool]:
    """Conjunction of base validity and the predicates of the selected
    domain features, in sorted feature order."""
    predicates = [domain_variant(f) for f in sorted(set(selected))]

    def valid(sm: SystemModelLite) -> bool:
        return eval_valid_base(sm) and all(p(sm) for p in predicates)

    return valid


# ---------------------------------------------------------------------------
# Bounded enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """Search-space bounds for enumeration: class names (IDENTs) addable
    beyond the required ones, the maximum object count, and the attribute
    triples eligible to appear."""

    extra_class_names: tuple[str, ...] = ()
    max_objects: int = 0
    attr_candidates: frozenset[Attr] = frozenset()

    def __post_init__(self) -> None:
        if self.max_objects < 0:
            raise ValueError("max_objects must be non-negative")
        for name in self.extra_class_names:
            if not IDENT.fullmatch(name):
                raise ValueError(f"extra class name {name!r} is not an IDENT")

    def describe(self) -> str:
        extra = ",".join(sorted(set(self.extra_class_names)))
        attrs = ",".join(f"({o},{n},{t})" for o, n, t in sorted(self.attr_candidates))
        return f"extra={{{extra}}};maxObjects={self.max_objects};attrs={{{attrs}}}"


def _subsets_by_size(items: tuple) -> Iterator[tuple]:
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _preorders(classes: tuple[str, ...]) -> list[tuple[Pair, ...]]:
    """Every reflexive and transitive relation over `classes`, each as a
    sorted tuple of pairs, ordered by size and then lexicographically.

    Classes are placed one at a time.  A preorder on the classes placed so
    far grows by a new class x with an up-closed set U above x and a
    down-closed set D below it, where every (d, u) in D x U is already
    related; each preorder on the larger set arises exactly once this way
    (OEIS A000798 counts them).
    """
    relations: list[tuple[Pair, ...]] = [()]
    placed: list[str] = []
    for x in classes:
        subsets = [frozenset(chosen) for chosen in _subsets_by_size(tuple(placed))]
        grown = []
        for rel in relations:
            related = set(rel)
            ups = [s for s in subsets if all(b in s for a, b in rel if a in s)]
            downs = [s for s in subsets if all(a in s for a, b in rel if b in s)]
            for up in ups:
                for down in downs:
                    if all((d, u) in related for d in down for u in up):
                        added = ((x, x), *((x, u) for u in up), *((d, x) for d in down))
                        grown.append(tuple(sorted(rel + added)))
        relations = grown
        placed.append(x)
    relations.sort(key=lambda sub: (len(sub), sub))
    return relations


def enumerate_systems(
    bounds: Bounds,
    required_classes: Iterable[str],
    valid: Callable[[SystemModelLite], bool],
) -> Iterator[SystemModelLite]:
    """All systems within bounds whose `sub` is a preorder and whose frame
    satisfies `valid`, in canonical order, without duplicates.

    The class universe ranges over required_classes plus any subset of the
    extra names; `sub` over the reflexive and transitive relations on it;
    attributes over subsets of the candidates that respect per-class name
    uniqueness; objects o1..oN for N up to the bound, with every total class
    assignment.  A frame is a system's classes, `sub` and attrs with no
    objects.  `valid` is called once per frame, and every object population
    of a frame it accepts is yielded, the frame itself first.  So `valid`
    must not read objects: base validity judges each generated population
    as it judges its frame, and domain variants constrain classes, `sub` and
    attrs only.
    Callers filter on objects over the yielded systems.  A relation that is
    not a preorder is never generated, whatever `valid` would say of it.
    """
    required = sorted(set(required_classes))
    extras = sorted(set(bounds.extra_class_names) - set(required))

    class_universes = sorted(
        {tuple(sorted(set(required) | set(chosen))) for chosen in _subsets_by_size(tuple(extras))},
        key=lambda t: (len(t), t),
    )

    for classes in class_universes:
        class_set = set(classes)
        eligible_attrs = tuple(
            sorted(
                a
                for a in bounds.attr_candidates
                if a[0] in class_set and a[2] in class_set
            )
        )
        # Every non-empty (objects, class assignment), in canonical order.
        populations = []
        for count in range(1, bounds.max_objects + 1):
            objects = tuple(f"o{i}" for i in range(1, count + 1))
            populations += [
                (objects, class_of)
                for class_of in sorted(
                    tuple(sorted(zip(objects, chosen)))
                    for chosen in product(classes, repeat=count)
                )
            ]
        for sub in _preorders(classes):
            for attrs in _subsets_by_size(eligible_attrs):
                if len({(o, n) for o, n, _ in attrs}) != len(attrs):
                    continue  # attribute names unique per class
                frame = SystemModelLite(classes, sub, attrs, (), ())
                if valid(frame):
                    yield frame
                    for objects, class_of in populations:
                        yield SystemModelLite(classes, sub, attrs, objects, class_of)


# ---------------------------------------------------------------------------
# Witness dump format
# ---------------------------------------------------------------------------

def dump_system(sm: SystemModelLite) -> str:
    """Deterministic dump with sections CLASSES, SUB, ATTRS, OBJECTS, CLASSOF;
    bit-exact for golden tests."""
    def section(header: str, entries: list[str]) -> str:
        return " ".join([header, *entries]) if entries else header

    return "\n".join(
        [
            section("CLASSES", list(sm.classes)),
            section("SUB", [f"({a},{b})" for a, b in sm.sub]),
            section("ATTRS", [f"({o},{n},{t})" for o, n, t in sm.attrs]),
            section("OBJECTS", list(sm.objects)),
            section("CLASSOF", [f"({o},{c})" for o, c in sm.class_of]),
        ]
    ) + "\n"
