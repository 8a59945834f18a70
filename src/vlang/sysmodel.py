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
exactly the attributes its query demands, and a variant can judge a
relation one class at a time, as the relation is built: its row of
`DOMAIN_VARIANTS` is a placement rule, which admits placing a class iff the
frame over the classes placed so far still meets the predicate.

A query's systems are those within bounds that hold its `Demands` and whose
every placement the rules admit, in a canonical deterministic order:
componentwise by cardinality, then lexicographically, over the encoding
(classes, sub, attrs, objects, class assignment).  Smaller systems come
first, which makes reported witnesses minimal.  A class universe is the
demanded classes plus a subset of the extra names; its `sub` ranges over the
preorders (the only relations base validity admits) that hold every
demanded pair and no forbidden one, cut while they are built at a placement
that breaks a bounded pair or that a rule refuses; its attrs are exactly the
demanded ones; and each frame (a system's classes, `sub` and attrs, with no
objects) comes right before its populations: objects o1..oN for N up to the
bound, with every total class assignment that puts at most one object in
each singleton class.  The demands and rules only drop systems from the
canonical sequence; they never reorder it.  The preorders are built as
ints, pair (classes[i], classes[j]) of the sorted universe at bit
n*n-1-(i*n+j), so that canonical order is ascending (bit count, -mask); a
mask is decoded to its sorted pairs only when it is reached.

The engine has two entries.  `tally(bounds, demands, rules, k)` is the
number of systems and the first k, from one build of each universe's
preorders: a universe adds (admitted preorders) x (1 + populations), and
its populations are counted by formula and formed only up to the k-th
system.  `first_system(bounds, demands, rules)` is the first system of the
order, asked of the demanded classes alone when the query names no other
class.  A universe's least frame is its classes, the closure of the
demanded `sub` pairs with every reflexive pair, and the demanded attrs; a
universe whose least frame is not base-valid, within bounds and holding the
demands has no frame and is skipped.  `first_system` judges the least frame
of each universe by replaying its placements and answers with it if the
rules admit it; only otherwise does it build the universe's preorders.
`COUNTS` adds up their work: preorders built, placements refused, frames
admitted, and `first_system` calls that built none (`least`); readers zero
it first.
"""

from __future__ import annotations

from itertools import combinations, islice, product
from math import comb, perm
from typing import Callable, Iterable, Iterator, NamedTuple

from .lexer import IDENT, RefusalError

Pair = tuple[str, str]
Attr = tuple[str, str, str]  # (owner class, attribute name, target class)
COUNTS = {"preorders": 0, "refused": 0, "accepted": 0, "least": 0}  # the work done


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


# ---------------------------------------------------------------------------
# Domain variants
# ---------------------------------------------------------------------------

# A placement rule judges one step of `_preorders`: placing the next class of
# a sorted universe with up-set `up` and down-set `down`, bit sets over the
# classes placed before it, where `ups[i]` and `downs[i]` are placed class
# i's up- and down-set among them, itself included.  It admits the step iff
# the frame over the classes placed so far, the new one included, meets the
# variant, given that the frame before the step does.
PlacementRule = Callable[[int, int, tuple[int, ...], tuple[int, ...]], bool]


def single_inheritance(up: int, down: int, ups: tuple[int, ...], downs: tuple[int, ...]) -> bool:
    """Any two superclasses of one class are themselves related: the new
    class's supers `up` are pairwise related, and each class below it keeps
    every super inside `up | down`, which are all related to the new class."""
    rest = up
    while rest:
        j = (rest & -rest).bit_length() - 1
        if up & ~(ups[j] | downs[j]):
            return False
        rest &= rest - 1
    related = up | down
    rest = down
    while rest:
        d = (rest & -rest).bit_length() - 1
        if ups[d] & ~related:
            return False
        rest &= rest - 1
    return True


# Feature name F -> the placement rule of its predicate valid-F.  A domain
# variant judges classes and `sub` only, never attrs or objects: the engine
# builds one attr set per class universe (the demanded attrs) and lets every
# object population of an admitted frame through.  Its predicate must
# survive restriction to fewer classes, which makes judging each placement
# exact and lets `first_system` search only the demanded classes.
DOMAIN_VARIANTS: dict[str, PlacementRule] = {
    "SingleInheritance": single_inheritance,
}


def domain_variant(feature: str) -> PlacementRule:
    """The placement rule of the predicate valid-F bound to domain feature F
    by name."""
    try:
        return DOMAIN_VARIANTS[feature]
    except KeyError:
        raise NameConventionError(
            f"feature {feature} provides no predicate valid-{feature}"
        ) from None


def variant_rules(selected: Iterable[str]) -> tuple[PlacementRule, ...]:
    """The placement rules of the selected domain features, in sorted
    feature order: the validity a frame built from a query's demands still
    needs."""
    return tuple(domain_variant(f) for f in sorted(set(selected)))


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
    classes: tuple[str, ...],
    must: Iterable[Pair],
    must_not: Iterable[Pair],
    rules: tuple[PlacementRule, ...] = (),
) -> list[int]:
    """Every reflexive and transitive relation over the sorted `classes`
    that holds each pair of `must` and none of `must_not` and whose every
    placement `rules` admit, each as an int with pair (classes[i],
    classes[j]) at bit n*n-1-(i*n+j), in canonical order: by size and then
    lexicographically over the sorted pairs, which is ascending
    `(bit_count, -mask)`.

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
    only from the sets that decide it right; each rule judges the placement
    there too, and a refused one grows no further.  The last step keeps the
    masks alone.  The caller ensures that `must` names only classes of
    `classes` and that its reflexive-transitive closure holds no `must_not`
    pair.  `COUNTS` gets the masks built and the placements refused.
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
    admit = _conjunction(rules)
    refused = 0
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
                        if admit is not None and not admit(up, down, ups, downs):
                            refused += 1
                            continue
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
    COUNTS["preorders"] += len(relations)
    COUNTS["refused"] += refused
    return relations


def _conjunction(rules: tuple[PlacementRule, ...]) -> PlacementRule | None:
    """One rule admitting what each of `rules` admits; None for no rule."""
    if len(rules) < 2:
        return next(iter(rules), None)
    return lambda *placement: all(rule(*placement) for rule in rules)


def _admitted(
    classes: tuple[str, ...], relation: Iterable[Pair], rules: tuple[PlacementRule, ...]
) -> bool:
    """Do `rules` admit each placement of `relation`, a preorder over the
    sorted `classes`, placing the classes in order as `_preorders` does?  A
    refusal counts in `COUNTS`."""
    admit = _conjunction(rules)
    if admit is None:
        return True
    index = {c: i for i, c in enumerate(classes)}
    up_rows, down_rows = [0] * len(classes), [0] * len(classes)
    for a, b in relation:
        up_rows[index[a]] |= 1 << index[b]
        down_rows[index[b]] |= 1 << index[a]
    for k in range(len(classes)):
        placed = (1 << k) - 1
        ups = tuple(row & placed for row in up_rows[:k])
        downs = tuple(row & placed for row in down_rows[:k])
        if not admit(up_rows[k] & placed, down_rows[k] & placed, ups, downs):
            COUNTS["refused"] += 1
            return False
    return True


def _universes(bounds: Bounds, demands: Demands) -> Iterator[tuple[tuple[str, ...], set[Pair]]]:
    """The class universes of a query that have frames, in canonical order
    and formed one size at a time, each with its least relation: the closure of the demanded `sub` pairs
    with every reflexive pair.  A universe ranges over the demanded classes
    plus any subset of the extra names; it is skipped when it lacks a class
    a demanded pair or attr names or when its least relation holds a
    forbidden pair, and a query with two demanded attrs of one name in one
    class has none."""
    if len({(o, n) for o, n, _ in demands.attrs}) != len(demands.attrs):
        return
    extras = sorted(set(bounds.extra_class_names) - demands.classes)
    named = {c for o, _, t in demands.attrs for c in (o, t)}.union(*demands.sub)
    closure = set(demands.sub)
    for k in named:  # Warshall
        below, above = [a for a, b in closure if b == k], [d for c, d in closure if c == k]
        closure.update((a, d) for a in below for d in above)
    # the extras miss the demanded classes, so the universes of one size are
    # distinct and sort by their tuples alone
    for size in range(len(extras) + 1):
        for classes in sorted(tuple(sorted(demands.classes.union(chosen)))
                              for chosen in combinations(extras, size)):
            least = closure | {(c, c) for c in classes}
            if named.issubset(classes) and least.isdisjoint(demands.no_sub):
                yield classes, least


def tally(
    bounds: Bounds, demands: Demands, rules: tuple[PlacementRule, ...], k: int
) -> tuple[int, list[SystemModelLite]]:
    """The number of systems of a query and the first `k` of them, in
    canonical order, from one build of each universe's preorders.  A
    universe adds (admitted masks) x (1 + populations), the populations
    counted by `_population_count`; masks are decoded and populations formed
    only up to the k-th system."""
    attrs = tuple(sorted(demands.attrs))
    count, first = 0, []
    for classes, _ in _universes(bounds, demands):
        masks = _preorders(classes, demands.sub, demands.no_sub, rules)
        COUNTS["accepted"] += len(masks)
        capped = len(demands.singletons.intersection(classes))
        count += len(masks) * (1 + _population_count(len(classes), capped, bounds.max_objects))
        if len(first) < k:
            members = (system for sub in map(_decoder(classes), masks)
                       for system in _members(classes, sub, attrs, bounds.max_objects, demands))
            first += islice(members, k - len(first))
    return count, first


def _members(
    classes: tuple[str, ...],
    sub: tuple[Pair, ...],
    attrs: tuple[Attr, ...],
    max_objects: int,
    demands: Demands,
) -> Iterator[SystemModelLite]:
    """A frame, then the systems of its populations."""
    yield SystemModelLite(classes, sub, attrs, (), ())
    for objects, class_of in _populations(classes, max_objects, demands):
        yield SystemModelLite(classes, sub, attrs, objects, class_of)


def _decoder(classes: tuple[str, ...]) -> Callable[[int], tuple[Pair, ...]]:
    """The sorted pairs of a `_preorders` mask over `classes`."""
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

    def decode(mask: int) -> tuple[Pair, ...]:
        sub: tuple[Pair, ...] = ()
        for shift, pairs in rows:
            sub += pairs[mask >> shift & full]
        return sub

    return decode


def _populations(
    classes: tuple[str, ...], max_objects: int, demands: Demands
) -> Iterator[tuple[tuple[str, ...], tuple[Pair, ...]]]:
    """Every non-empty (objects, class assignment) over `classes` within the
    object bound and the demanded caps, canonically, each formed when
    reached.  An assignment lists its objects by name (o1, o10, o2, ...), so
    over the sorted `classes` the product's order is the sorted order of the
    assignments."""
    for count in range(1, max_objects + 1):
        objects = tuple(f"o{i}" for i in range(1, count + 1))
        names = sorted(objects)
        for chosen in product(classes, repeat=count):
            class_of = tuple(zip(names, chosen))
            if demands.caps_hold(class_of):
                yield objects, class_of


def _population_count(n: int, capped: int, max_objects: int) -> int:
    """The number of `_populations` over n classes, `capped` of them
    singletons: an assignment of k objects puts j of them, one each, into
    capped classes and the rest anywhere else."""
    free = n - capped
    return sum(
        comb(k, j) * perm(capped, j) * free ** (k - j)
        for k in range(1, max_objects + 1)
        for j in range(min(k, capped) + 1)
    )


def first_system(
    bounds: Bounds, demands: Demands, rules: tuple[PlacementRule, ...]
) -> SystemModelLite | None:
    """The first system of a query in canonical order, or None: a frame,
    since each frame comes before its populations.  Each universe's least
    frame is judged by replaying its placements, and its preorders are built
    only if the rules refuse it.  When the required pairs and attrs name only
    demanded classes, only the demanded universe is asked: a frame of a
    larger universe restricts to a frame of it with the same attrs that
    still holds the demands and, as domain variants must, meets them."""
    named = demands.classes.union(*demands.sub, *((o, t) for o, _, t in demands.attrs))
    if named <= demands.classes:
        bounds = bounds._replace(extra_class_names=())
    built = COUNTS["preorders"]
    first = None
    for classes, least in _universes(bounds, demands):
        if _admitted(classes, least, rules):
            sub = tuple(sorted(least))
        else:
            masks = _preorders(classes, demands.sub, demands.no_sub, rules)
            if not masks:
                continue
            sub = _decoder(classes)(masks[0])
        COUNTS["accepted"] += 1
        first = SystemModelLite(classes, sub, tuple(sorted(demands.attrs)), (), ())
        break
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
