"""Expected results for the `sem` and `analyze` operations, computed without
the program under test.

Nothing here imports `vlang`.  The reference works from the structure the
input generator planted (classes, supers, stereotypes, assertions), not from
parsed text, and rebuilds the bounded semantic domain from its definition:

* the `sub` relations are the labelled preorders, built by closing every
  subset of the non-reflexive pairs of a class universe (A000798 counts
  them: 1, 1, 4, 29, 355 for 0 to 4 classes);
* a system is a class universe (the required classes plus any subset of the
  extra names), a preorder on it, a subset of the eligible delegation
  attributes, and a total assignment of objects o1..ok (k up to the bound);
* canonical order is the documented one: componentwise by cardinality, then
  lexicographic over (classes, sub, attrs, objects, class assignment).

`check_system` validates a printed system property by property, so a wrong
witness is reported with the clause it breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple, Sequence

SINGLETON = "singleton"


class System(NamedTuple):
    classes: tuple
    sub: tuple
    attrs: tuple
    objects: tuple
    class_of: tuple


def canonical_key(s: System):
    return (
        len(s.classes), s.classes, len(s.sub), s.sub,
        len(s.attrs), s.attrs, len(s.objects), s.objects, s.class_of,
    )


# ---------------------------------------------------------------------------
# Models, as planted by the generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassDecl:
    name: str
    supers: tuple[str, ...] = ()
    stereotypes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassDiagram:
    name: str
    classes: tuple[ClassDecl, ...]

    def mentioned(self) -> set[str]:
        out = set()
        for c in self.classes:
            out.add(c.name)
            out.update(c.supers)
        return out

    def delegate_attrs(self) -> set[tuple[str, str, str]]:
        return {
            (c.name, f"dlg_{s}", s) for c in self.classes for s in c.supers[1:]
        }


@dataclass(frozen=True)
class Assertion:
    left: str
    right: str
    negated: bool = False


@dataclass(frozen=True)
class AssertionDoc:
    name: str
    assertions: tuple[Assertion, ...]

    def mentioned(self) -> set[str]:
        return {n for a in self.assertions for n in (a.left, a.right)}

    def delegate_attrs(self) -> set[tuple[str, str, str]]:
        return set()


@dataclass(frozen=True)
class Semantics:
    """A configuration: the super-class mapping variant and whether the
    domain requires single inheritance."""

    mapping: str  # "direct" | "delegate"
    single_inheritance: bool = False


@dataclass(frozen=True)
class Bounds:
    max_objects: int
    extras: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# The domain
# ---------------------------------------------------------------------------

def _close(rel: set[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    reach = [[(i, j) in rel or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return frozenset((i, j) for i in range(n) for j in range(n) if reach[i][j])


@lru_cache(maxsize=None)
def labelled_preorders(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Every reflexive, transitive relation on 0..n-1: the closures of all
    subsets of the non-reflexive pairs, without repeats."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen: set[frozenset[tuple[int, int]]] = set()
    for mask in range(1 << len(pairs)):
        seen.add(_close({p for b, p in enumerate(pairs) if mask >> b & 1}, n))
    return tuple(sorted(seen, key=sorted))


def preorders_on(classes: Sequence[str]) -> list[tuple[tuple[str, str], ...]]:
    return [
        tuple(sorted((classes[i], classes[j]) for i, j in rel))
        for rel in labelled_preorders(len(classes))
    ]


def is_reflexive(classes, sub) -> bool:
    pairs = set(sub)
    return all((c, c) in pairs for c in classes)


def is_transitive(sub) -> bool:
    pairs = set(sub)
    return all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c)


def single_inheritance(sub) -> bool:
    """The supers of each class (itself included) are pairwise related."""
    pairs = set(sub)
    ups: dict[str, list[str]] = {}
    for a, b in pairs:
        ups.setdefault(a, []).append(b)
    return all(
        (x, y) in pairs or (y, x) in pairs
        for bs in ups.values()
        for x, y in combinations(bs, 2)
    )


def _subsets(items: Sequence) -> list[tuple]:
    return [c for r in range(len(items) + 1) for c in combinations(items, r)]


def universes(required: set[str], extras: Sequence[str]) -> list[tuple[str, ...]]:
    free = sorted(set(extras) - required)
    found = {tuple(sorted(required | set(pick))) for pick in _subsets(free)}
    return sorted(found, key=lambda u: (len(u), u))


def valid_systems(
    required: set[str],
    sem: Semantics,
    bounds: Bounds,
    attr_candidates: set[tuple[str, str, str]],
) -> list[System]:
    """Every valid system within bounds, in canonical order."""
    out: list[System] = []
    for classes in universes(required, bounds.extras):
        members = set(classes)
        eligible = sorted(a for a in attr_candidates if a[0] in members and a[2] in members)
        for sub in preorders_on(classes):
            if sem.single_inheritance and not single_inheritance(sub):
                continue
            for attrs in _subsets(eligible):
                for k in range(bounds.max_objects + 1):
                    objects = tuple(f"o{i}" for i in range(1, k + 1))
                    for chosen in product(classes, repeat=k):
                        out.append(
                            System(classes, sub, attrs, objects, tuple(sorted(zip(objects, chosen))))
                        )
    out.sort(key=canonical_key)
    return out


# ---------------------------------------------------------------------------
# Mapping: what a model demands of a system
# ---------------------------------------------------------------------------

def model_problems(model, s: System, sem: Semantics) -> list[str]:
    """The clauses of `model` that `s` breaks; empty when `s` is accepted."""
    classes, pairs, attrs = set(s.classes), set(s.sub), set(s.attrs)
    problems: list[str] = []
    if isinstance(model, AssertionDoc):
        for a in model.assertions:
            if a.left not in classes or a.right not in classes:
                problems.append(f"assertion on {a.left},{a.right}: class missing")
            elif ((a.left, a.right) in pairs) == a.negated:
                problems.append(
                    f"{'no ' if a.negated else ''}sub {a.left} {a.right} broken"
                )
        return problems
    for c in model.classes:
        if c.name not in classes:
            problems.append(f"class {c.name} missing")
            continue
        if sem.mapping == "direct":
            for sup in c.supers:
                if sup not in classes or (c.name, sup) not in pairs:
                    problems.append(f"class {c.name}: super {sup} not in SUB")
        elif c.supers:
            if (c.name, c.supers[0]) not in pairs:
                problems.append(f"class {c.name}: super {c.supers[0]} not in SUB")
            for sup in c.supers[1:]:
                if sup not in classes or (c.name, f"dlg_{sup}", sup) not in attrs:
                    problems.append(f"class {c.name}: attribute dlg_{sup} missing")
        if SINGLETON in c.stereotypes:
            population = sum(1 for _, owner in s.class_of if owner == c.name)
            if population > 1:
                problems.append(f"singleton {c.name} has {population} objects")
    return problems


def accepts(model, s: System, sem: Semantics) -> bool:
    return not model_problems(model, s, sem)


def attr_candidates(models: Sequence, sem: Semantics) -> set[tuple[str, str, str]]:
    if sem.mapping != "delegate":
        return set()
    out: set[tuple[str, str, str]] = set()
    for m in models:
        out |= m.delegate_attrs()
    return out


def required_classes(models: Sequence) -> set[str]:
    out: set[str] = set()
    for m in models:
        out |= m.mentioned()
    return out


def domain_problems(
    s: System, sem: Semantics, bounds: Bounds, required: set[str], candidates: set
) -> list[str]:
    """Checks that `s` lies in the bounded domain and is valid there."""
    problems: list[str] = []
    classes = set(s.classes)
    if list(s.classes) != sorted(classes):
        problems.append("CLASSES not sorted and distinct")
    if not required <= classes:
        problems.append(f"required classes {sorted(required - classes)} missing")
    if not classes <= required | set(bounds.extras):
        problems.append(f"classes {sorted(classes - required - set(bounds.extras))} out of bounds")
    if any(a not in classes or b not in classes for a, b in s.sub):
        problems.append("SUB pair outside the class universe")
    if not is_reflexive(s.classes, s.sub):
        problems.append("SUB not reflexive")
    if not is_transitive(s.sub):
        problems.append("SUB not transitive")
    if sem.single_inheritance and not single_inheritance(s.sub):
        problems.append("SingleInheritance broken")
    for a in s.attrs:
        if a not in candidates or a[0] not in classes or a[2] not in classes:
            problems.append(f"attribute {a} not eligible")
    k = len(s.objects)
    if k > bounds.max_objects or s.objects != tuple(f"o{i}" for i in range(1, k + 1)):
        problems.append("OBJECTS not o1..ok within the bound")
    if [o for o, _ in s.class_of] != list(s.objects) or any(c not in classes for _, c in s.class_of):
        problems.append("CLASSOF not a total assignment into CLASSES")
    return problems


# ---------------------------------------------------------------------------
# Expected reports
# ---------------------------------------------------------------------------

def dump(s: System) -> str:
    def section(header: str, entries: list[str]) -> str:
        return " ".join([header, *entries])

    return "\n".join([
        section("CLASSES", list(s.classes)),
        section("SUB", [f"({a},{b})" for a, b in s.sub]),
        section("ATTRS", [f"({o},{n},{t})" for o, n, t in s.attrs]),
        section("OBJECTS", list(s.objects)),
        section("CLASSOF", [f"({o},{c})" for o, c in s.class_of]),
    ]) + "\n"


def parse_dump(lines: Sequence[str]) -> System:
    """Read the five dump lines back into a System."""
    heads = ("CLASSES", "SUB", "ATTRS", "OBJECTS", "CLASSOF")
    parts = []
    for head, line in zip(heads, lines):
        words = line.split(" ")
        if words[0] != head:
            raise ValueError(f"expected {head}, got {line!r}")
        parts.append(words[1:])
    if len(parts) != 5:
        raise ValueError("truncated system dump")

    def tuples(words):
        return tuple(tuple(w[1:-1].split(",")) for w in words)

    return System(tuple(parts[0]), tuples(parts[1]), tuples(parts[2]), tuple(parts[3]), tuples(parts[4]))


def describe_bounds(bounds: Bounds, candidates: set) -> str:
    extra = ",".join(sorted(set(bounds.extras)))
    attrs = ",".join(f"({o},{n},{t})" for o, n, t in sorted(candidates))
    return f"extra={{{extra}}};maxObjects={bounds.max_objects};attrs={{{attrs}}}"


@dataclass(frozen=True)
class Expected:
    """The exact report and exit code an operation must produce."""

    stdout: str
    exit_code: int


def expect_sem(model, sem: Semantics, bounds: Bounds, witnesses: int) -> Expected:
    candidates = attr_candidates([model], sem)
    members = [
        s for s in valid_systems(required_classes([model]), sem, bounds, candidates)
        if accepts(model, s, sem)
    ]
    out = [f"SEM count={len(members)} bounds={describe_bounds(bounds, candidates)}\n"]
    for i, s in enumerate(members[:witnesses], start=1):
        out.append(f"WITNESS {i}\n{dump(s)}")
    return Expected("".join(out), 0)


def _first(systems, predicate):
    return next((s for s in systems if predicate(s)), None)


def expect_analysis(kind: str, models: Sequence, sem: Semantics, bounds: Bounds) -> Expected:
    candidates = attr_candidates(models, sem)
    systems = valid_systems(required_classes(models), sem, bounds, candidates)
    witness = counter = None
    if kind == "consistent":
        witness = _first(systems, lambda s: all(accepts(m, s, sem) for m in models))
        holds = witness is not None
    else:
        a, b = models
        counter = _first(systems, lambda s: accepts(a, s, sem) and not accepts(b, s, sem))
        if counter is None and kind == "equiv":
            counter = _first(systems, lambda s: accepts(b, s, sem) and not accepts(a, s, sem))
        holds = counter is None
    lines = [
        f"RESULT holds={'true' if holds else 'false'} kind={kind} "
        f"bounds={describe_bounds(bounds, candidates)}"
    ]
    if witness is not None:
        lines += ["WITNESS", dump(witness).rstrip("\n")]
    if counter is not None:
        lines += ["COUNTEREXAMPLE", dump(counter).rstrip("\n")]
    return Expected("\n".join(lines) + "\n", 0 if holds else 1)


def check_system(
    s: System, role: str, kind: str, models: Sequence, sem: Semantics, bounds: Bounds
) -> list[str]:
    """Why the printed system `s` cannot play `role` for this query; empty
    when it can.  Roles: a `member` of a model's semantics, a consistency
    `witness`, or a refinement or equivalence `counterexample`."""
    candidates = attr_candidates(models, sem)
    problems = domain_problems(s, sem, bounds, required_classes(models), candidates)
    verdicts = [model_problems(m, s, sem) for m in models]
    if role in ("member", "witness"):
        for m, broken in zip(models, verdicts):
            problems += [f"{m.name}: {p}" for p in broken]
    elif kind == "refine":
        problems += [f"{models[0].name}: {p}" for p in verdicts[0]]
        if not verdicts[1]:
            problems.append(f"{models[1].name} accepts the counterexample")
    elif bool(verdicts[0]) == bool(verdicts[1]):
        problems.append("both models agree on the counterexample")
    return problems
