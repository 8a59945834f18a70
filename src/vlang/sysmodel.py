"""The bounded semantic domain: finite class structures with subclassing,
attributes, and an object population.

A system is a finite set of class names, a subclassing relation over them,
attributes (owner, name, target class), objects with canonical identifiers
o1..oN, and a total class assignment for the objects.  Base validity demands
a reflexive and transitive subclassing relation on top of the structural
invariants.  Domain variants are extra validity predicates bound to feature
names in `DOMAIN_VARIANTS` (feature F to its predicate valid-F); a valid
system is base-valid and meets the selected variants.  A domain variant
reads only a frame's classes and subclassing, never its attributes or
objects, and must survive restriction: restricting a frame it accepts to any
subset of its classes, with the `sub` pairs among them, gives a frame it
accepts.  Base validity and `SingleInheritance` do.  So a frame carries
exactly the attributes its query demands: no other attribute set could
change a variant's verdict.

`enumerate_systems(bounds, demands, valid)` walks the systems within bounds
that hold a query's `Demands`, in a canonical deterministic order:
componentwise by cardinality, then lexicographically, over the encoding
(classes, sub, attrs, objects, class assignment).  Smaller systems come
first, which makes reported witnesses minimal.  A class universe's least
frame is its classes, the closure of the demanded `sub` pairs with every
reflexive pair, and the demanded attrs.  A universe whose least frame is not
base-valid, within bounds and holding the demands has no such frame and is
skipped; otherwise the least frame is offered first, the universe's other
preorders (the only relations base validity admits, cut while they are built
when they break a bounded pair) only when the caller asks for more, and its
capped populations after its first accepted frame.  Every frame is thus
base-valid and holds the demands, so `valid` need only carry the domain
variants; it is checked once per frame.  The preorders are built as ints,
pair (classes[i], classes[j]) of the sorted universe at bit n*n-1-(i*n+j), so
that canonical order is ascending (bit count, -mask); each is decoded to its
sorted pairs only when the walk reaches it.

`first_system(bounds, demands, valid)` is the first system of that order,
asked of the demanded classes alone when the query names no other class.
`COUNTS` adds up their work: preorders built, frames offered and accepted,
and `first_system` calls that built none (`least`); readers zero it first.
"""

from __future__ import annotations

from itertools import combinations, islice, product
from typing import Callable, Iterable, Iterator, NamedTuple

from .lexer import IDENT, RefusalError

Pair = tuple[str, str]
Attr = tuple[str, str, str]  # (owner class, attribute name, target class)
COUNTS = {"preorders": 0, "offered": 0, "accepted": 0, "least": 0}  # the work done


class NameConventionError(RefusalError):
    """A selected domain feature F has no predicate valid-F in
    `DOMAIN_VARIANTS`."""


class SystemModelLite(NamedTuple):
    """One bounded semantic-domain structure.

    All components are canonically sorted tuples.
    """

    classes: tuple[str, ...]
    sub: tuple[Pair, ...]
    attrs: tuple[Attr, ...]
    objects: tuple[str, ...]
    class_of: tuple[Pair, ...]


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


def _supers(sm: SystemModelLite) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for a, b in sm.sub:
        out.setdefault(a, set()).add(b)
    return out


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

# Feature name F -> its predicate valid-F.  A domain variant reads a
# system's classes and `sub` only, never its attrs or objects:
# `enumerate_systems` builds one attr set per class universe (the demanded
# attrs), evaluates validity once per frame and lets every object population
# of an accepted frame through.  It must survive restriction to fewer
# classes: `first_system` searches only the demanded ones.
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


def variants_valid(selected: Iterable[str]) -> Callable[[SystemModelLite], bool]:
    """Conjunction of the predicates of the selected domain features, in
    sorted feature order: the validity a frame built by `enumerate_systems`
    still needs."""
    predicates = [domain_variant(f) for f in sorted(set(selected))]
    return lambda sm: all(p(sm) for p in predicates)


# ---------------------------------------------------------------------------
# Bounded enumeration
# ---------------------------------------------------------------------------

class Demands(NamedTuple):
    """A conjunction of atoms: each of `classes` exists, each pair of `sub`
    is present and each of `no_sub` absent, each of `attrs` is present, and
    each of `singletons` has at most one object.  `frame_holds` and
    `caps_hold` judge a system."""

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

    def caps_hold(self, class_of: Iterable[Pair]) -> bool:
        """No two objects of a class assignment share a singleton class."""
        capped = [c for _, c in class_of if c in self.singletons]
        return len(capped) == len(set(capped))


class _BoundsFields(NamedTuple):
    extra_class_names: tuple[str, ...] = ()
    max_objects: int = 0


class Bounds(_BoundsFields):
    """Search-space bounds for enumeration: class names (IDENTs) addable
    beyond the required ones and the maximum object count.  A negative count
    or a name that is not an IDENT raises ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_objects < 0:
            raise ValueError("max_objects must be non-negative")
        for name in self.extra_class_names:
            if not IDENT.fullmatch(name):
                raise ValueError(f"extra class name {name!r} is not an IDENT")
        return self

    def describe(self, attrs: Iterable[Attr] = ()) -> str:
        """The bounds as a report prints them, with the attrs a query
        demands: every system of the query carries exactly those."""
        extra = ",".join(sorted(set(self.extra_class_names)))
        attrs = ",".join(f"({o},{n},{t})" for o, n, t in sorted(attrs))
        return f"extra={{{extra}}};maxObjects={self.max_objects};attrs={{{attrs}}}"


def _preorders(
    classes: tuple[str, ...], must: Iterable[Pair], must_not: Iterable[Pair]
) -> list[int]:
    """Every reflexive and transitive relation over the sorted `classes`
    that holds each pair of `must` and none of `must_not`, each as an int
    with pair (classes[i], classes[j]) at bit n*n-1-(i*n+j), in canonical
    order: by size and then lexicographically over the sorted pairs, which
    is ascending `(bit_count, -mask)`.

    Classes are placed one at a time.  A preorder on the classes placed so
    far grows by a new class x with an up-closed set U above x and a
    down-closed set D below it, where every (d, u) in D x U is already
    related: D is drawn from the classes whose up-set holds U.  Each
    preorder on the larger set arises exactly once this way (OEIS A000798
    counts them).  A partial relation keeps each placed class's up- and
    down-set as a bit set over class indices; closure tables over the
    subsets of the placed classes tell which sets are up- and down-closed.
    The pairs among placed classes never change afterwards, so a bounded
    pair is decided when its later endpoint is placed, and U and D are drawn
    only from the sets that decide it right.  The last step keeps the masks
    alone.  The caller ensures that `must` names only classes of `classes`
    and that its reflexive-transitive closure, listed first, holds no
    `must_not` pair.
    """
    n = len(classes)
    index = {c: i for i, c in enumerate(classes)}

    def bit(i: int, j: int) -> int:
        return 1 << (n * n - 1 - i * n - j)

    # need[k] and ban[k]: the earlier classes that must, or must not, be
    # above and below class k, as bit sets; a pair is decided at its later
    # endpoint
    need, ban = [[0, 0] for _ in classes], [[0, 0] for _ in classes]
    for pairs, table in ((must, need), (must_not, ban)):
        for a, b in pairs:
            if a in index and b in index:
                i, j = index[a], index[b]
                if i > j:
                    table[i][0] |= 1 << j
                elif j > i:
                    table[j][1] |= 1 << i
    relations: list = [(0, (), ())] if classes else [0]  # (mask, ups, downs)
    for k in range(n):
        size = top = 1 << k  # the subsets of the placed classes; class k's bit
        last = k == n - 1
        # each subset s of the placed classes, built from s less its lowest
        # member j, and the pairs (k, u) for u in s and (d, k) for d in s
        steps = [(s, s & (s - 1), (s & -s).bit_length() - 1) for s in range(1, size)]
        row, col = [bit(k, k)] * size, [0] * size
        for s, rest, j in steps:
            row[s], col[s] = row[rest] | bit(k, j), col[rest] | bit(j, k)
        (need_up, need_down), (ban_up, ban_down) = need[k], ban[k]
        above = [s for s in range(size) if s & need_up == need_up and not s & ban_up]
        below = [s for s in range(size) if s & need_down == need_down and not s & ban_down]
        grown = []
        for mask, ups, downs in relations:
            up_closure, down_closure = [0] * size, [0] * size
            for s, rest, j in steps:
                up_closure[s] = up_closure[rest] | ups[j]
                down_closure[s] = down_closure[rest] | downs[j]
            closed_below = [d for d in below if down_closure[d] == d]
            for up in above:
                if up_closure[up] != up:
                    continue
                fits = 0  # the classes whose up-set holds U
                for i, above_i in enumerate(ups):
                    if above_i & up == up:
                        fits |= 1 << i
                for down in closed_below:
                    if down & fits == down:
                        grown_mask = mask | row[up] | col[down]
                        if last:
                            grown.append(grown_mask)
                        else:
                            grown.append((
                                grown_mask,
                                (*(u | top if down >> i & 1 else u for i, u in enumerate(ups)), up | top),
                                (*(d | top if up >> i & 1 else d for i, d in enumerate(downs)), down | top),
                            ))
        relations = grown
    relations.sort(key=lambda mask: (mask.bit_count(), -mask))
    return relations


def enumerate_systems(
    bounds: Bounds, demands: Demands, valid: Callable[[SystemModelLite], bool]
) -> Iterator[SystemModelLite]:
    """All systems within bounds that hold `demands` and whose frame
    satisfies `valid`, in canonical order, without duplicates.

    The class universe ranges over the demanded classes plus any subset of
    the extra names; `sub` over the reflexive and transitive relations on it
    that hold every demanded pair and no forbidden one, the least of them
    offered before the others are built; the attributes are exactly the
    demanded attrs, so a universe lacking an attr's owner or target is
    skipped, and a query with two demanded attrs of one name in one class
    has no system; objects o1..oN for N up to the bound, with every total
    class assignment that puts at most one object in each singleton class.
    A frame is a system's classes, `sub` and attrs with no objects.  Every
    frame is base-valid and holds the demands on classes, `sub` and attrs by
    construction, so `valid` need only carry domain variants.  `valid` is
    called once per frame, and every population of a frame it accepts is
    yielded, the frame itself first.  So `valid` must read classes and `sub`
    only: base validity judges each generated population as it judges its
    frame, and no other attr set is offered.  The demands only drop systems
    from the canonical sequence; they never reorder it.
    """
    attrs = tuple(sorted(demands.attrs))
    if len({(o, n) for o, n, _ in attrs}) != len(attrs):
        return  # two demanded attrs share a name in one class
    extras = sorted(set(bounds.extra_class_names) - demands.classes)
    class_universes = sorted(
        {tuple(sorted(demands.classes.union(chosen)))
         for r in range(len(extras) + 1) for chosen in combinations(extras, r)},
        key=lambda t: (len(t), t),
    )
    named = {c for o, _, t in attrs for c in (o, t)}.union(*demands.sub)
    closure = set(demands.sub)
    for k in named:  # Warshall
        below, above = [a for a, b in closure if b == k], [d for c, d in closure if c == k]
        closure.update((a, d) for a in below for d in above)

    for classes in class_universes:
        least = closure | {(c, c) for c in classes}
        if not named.issubset(classes) or not least.isdisjoint(demands.no_sub):
            continue
        populations = None  # formed after the universe's first accepted frame
        for sub in _relations(classes, least, demands):
            frame = SystemModelLite(classes, sub, attrs, (), ())
            COUNTS["offered"] += 1
            if valid(frame):
                COUNTS["accepted"] += 1
                yield frame
                if populations is None:
                    populations = _populations(classes, bounds.max_objects, demands)
                for objects, class_of in populations:
                    yield SystemModelLite(classes, sub, attrs, objects, class_of)


def _relations(
    classes: tuple[str, ...], least: set[Pair], demands: Demands
) -> Iterator[tuple[Pair, ...]]:
    """The least relation, then the universe's other preorders, which are
    built only when asked for and each decoded only when reached."""
    yield tuple(sorted(least))
    masks = _preorders(classes, demands.sub, demands.no_sub)
    COUNTS["preorders"] += len(masks)
    n = len(classes)
    # (shift, pairs) for row i: its bits sit `shift` up a mask, and pairs[r]
    # holds the pairs (classes[i], c) of row bits r in sorted order, so the
    # rows joined in order give the sorted relation
    rows = []
    for i, a in enumerate(classes):
        pairs: list[tuple[Pair, ...]] = [()]
        for b in classes:
            pairs = [p for q in pairs for p in (q, (*q, (a, b)))]
        rows.append((n * (n - 1 - i), pairs))
    full = (1 << n) - 1
    for mask in islice(masks, 1, None):
        sub: tuple[Pair, ...] = ()
        for shift, pairs in rows:
            sub += pairs[mask >> shift & full]
        yield sub


def _populations(
    classes: tuple[str, ...], max_objects: int, demands: Demands
) -> list[tuple[tuple[str, ...], tuple[Pair, ...]]]:
    """Every non-empty (objects, class assignment) over `classes` within the
    object bound and the demanded caps, canonically.  An assignment lists
    its objects by name (o1, o10, o2, ...), so over the sorted `classes` the
    product's order is the sorted order of the assignments."""
    populations = []
    for count in range(1, max_objects + 1):
        objects = tuple(f"o{i}" for i in range(1, count + 1))
        names = sorted(objects)
        populations += [
            (objects, class_of)
            for class_of in (tuple(zip(names, chosen)) for chosen in product(classes, repeat=count))
            if demands.caps_hold(class_of)
        ]
    return populations


def first_system(
    bounds: Bounds, demands: Demands, valid: Callable[[SystemModelLite], bool]
) -> SystemModelLite | None:
    """`next(enumerate_systems(bounds, demands, valid), None)`.  When the
    required pairs and attrs name only demanded classes, only the demanded
    universe is asked: a frame of a larger universe restricts to a frame of
    it with the same attrs that still holds the demands and, as domain
    variants must, `valid`."""
    named = demands.classes.union(*demands.sub, *((o, t) for o, _, t in demands.attrs))
    if named <= demands.classes:
        bounds = bounds._replace(extra_class_names=())
    built = COUNTS["preorders"]
    first = next(enumerate_systems(bounds, demands, valid), None)
    COUNTS["least"] += COUNTS["preorders"] == built
    return first


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
