"""Seeded inputs, operation lists and expected results of the three workloads.

Each workload is a fixed list of operations (one pass), every one a `vlang`
command line plus a check of its exit code and standard output.  The seed
draws class, diagram, feature and theory names, the spelling and layout of
the texts, which structure each `sem` slot uses, and where the frontend
inputs plant their violations.  What an operation costs is fixed per slot:

* in `sem-enum` and `analyze-mix` each slot fixes the number of classes, the
  delegation attributes, the object bound and the configuration, which fix
  the number of candidates a full scan walks;
* an analysis that stops early stops at the same place for every seed,
  because names are drawn in sorted order for the roles of a slot, and the
  enumeration order depends on names only through their order;
* in `frontend` the number of classes, statements, supers, stereotypes,
  features and planted violations is fixed; the seed shuffles them.

Expected results never come from `vlang`: `reference` computes the semantic
ones, and the frontend ones follow from what the generator planted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from reference import (
    Assertion,
    AssertionDoc,
    Bounds,
    ClassDecl,
    ClassDiagram,
    Semantics,
    check_system,
    expect_analysis,
    expect_sem,
    parse_dump,
)

WORKLOADS = ("sem-enum", "analyze-mix", "frontend")

CDSIMP_GRAMMAR = """\
grammar CDSimp {
    CDDefinition = "classdiagram" Name:IDENT "{" (CDCClass)* "}";
    CDCClass = "class" Name:IDENT ("extends" scl:IDENT ("," scl:IDENT)*)? ";";
}
"""

CD_GRAMMAR = """\
grammar CD {
    CDDefinition = "classdiagram" Name:IDENT "{" (classes:CDCClass)* "}";
    CDCClass = <<?>> "class" Name:IDENT
               (("extends" | "ext") scl:IDENT ("," scl:IDENT)*)? ";";
    sugar CDCClasses for CDCClass = "classes" names:IDENT ("," names:IDENT)* ";";
}
"""

ASSERT_GRAMMAR = """\
grammar CDAssert {
    AssertionDoc = "assertions" Name:IDENT "{" (assertions:SubAssertion)* "}";
    SubAssertion = (neg:Negation)? "sub" left:IDENT right:IDENT ";";
    Negation = "no";
}
"""

SEMANTICS_FD = """\
featurediagram SystemModelVar {
    vp vObject for theory Object {
        optional feature SingleInheritance kind semantic-domain;
    }
    vp vType for theory Type {
    }
}
featurediagram CDSimpSemVar {
    vp vMapSuperClasses for theory CDSimpSem {
        xor {
            feature MapSuperCDirect kind semantic-mapping;
            feature MapSuperCDelegate kind semantic-mapping;
        }
    }
    constraint MapSuperCDirect excludes SystemModelVar.SingleInheritance;
}
"""

DIRECT = Semantics("direct")
DELEGATE = Semantics("delegate")
DELEGATE_SI = Semantics("delegate", single_inheritance=True)

UNKNOWN_STEREOTYPES = ("abstract", "entity", "external", "persistent")

# The operation the benchmark keeps although it fails today: the model
# parser descends recursively, one group level per `a`, and overflows the
# interpreter stack.  Its input does not depend on the seed.
NESTED_DEPTH = 3000
NESTED_GRAMMAR = 'grammar N { A = "a" (A)?; }\n'


@dataclass
class Op:
    """One command line and the check of its result."""

    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    ops: list[Op] = field(default_factory=list)
    out_dirs: list[str] = field(default_factory=list)  # emptied before each pass

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

_SYLLABLES = [c + v for c in "BDFGKLMNPRSTVZ" for v in "aeiou"]


def _word(rng: random.Random, lo: int = 2, hi: int = 3) -> str:
    word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(lo, hi)))
    return word[0] + word[1:].lower()


def fresh_names(rng: random.Random, k: int, taken: set[str] | None = None) -> list[str]:
    """k distinct capitalised identifiers in ascending order."""
    taken = taken if taken is not None else set()
    out: set[str] = set()
    while len(out) < k:
        w = _word(rng)
        if w not in taken:
            out.add(w)
    taken |= out
    return sorted(out)


# ---------------------------------------------------------------------------
# Model texts
# ---------------------------------------------------------------------------

def _class_line(c: ClassDecl, language: str, rng: random.Random) -> str:
    head = "".join(f"<<{s}>> " for s in c.stereotypes)
    ext = ""
    if c.supers:
        kw = rng.choice(("extends", "ext")) if language == "CD" else "extends"
        ext = f" {kw} " + ", ".join(c.supers)
    return f"    {head}class {c.name}{ext};"


def cd_text(model: ClassDiagram, language: str, rng: random.Random) -> str:
    """Render a class diagram in CDSimp or CD; CD texts mix `ext` and
    `extends`, and fold runs of plain classes into `classes` statements."""
    lines = [f"classdiagram {model.name} {{"]
    decls = list(model.classes)
    i = 0
    while i < len(decls):
        c = decls[i]
        if language == "CD" and not c.supers and not c.stereotypes:
            run = [c]
            while i + len(run) < len(decls) and not decls[i + len(run)].supers \
                    and not decls[i + len(run)].stereotypes and rng.random() < 0.7:
                run.append(decls[i + len(run)])
            if len(run) > 1:
                lines.append("    classes " + ", ".join(d.name for d in run) + ";")
                i += len(run)
                continue
        lines.append(_class_line(c, language, rng))
        i += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def assertion_text(doc: AssertionDoc) -> str:
    body = "".join(
        f"    {'no ' if a.negated else ''}sub {a.left} {a.right};\n" for a in doc.assertions
    )
    return f"assertions {doc.name} {{\n{body}}}\n"


def _semantics_files(base: str) -> dict[str, str]:
    return {
        f"{base}/sm.fd": SEMANTICS_FD,
        f"{base}/si.conf": "configuration SMConf for SystemModelVar {\n    select SingleInheritance;\n}\n",
        f"{base}/nosi.conf": "configuration SMConf for SystemModelVar {\n}\n",
        f"{base}/direct.conf": "configuration MapConf for CDSimpSemVar {\n    select MapSuperCDirect;\n}\n",
        f"{base}/delegate.conf": "configuration MapConf for CDSimpSemVar {\n    select MapSuperCDelegate;\n}\n",
    }


def _semantics_args(base: str, sem: Semantics) -> list[str]:
    return [
        f"{base}/sm.fd",
        f"{base}/si.conf" if sem.single_inheritance else f"{base}/nosi.conf",
        f"{base}/{sem.mapping}.conf",
    ]


def _bounds_args(bounds: Bounds) -> list[str]:
    args = ["--max-objects", str(bounds.max_objects)]
    if bounds.extras:
        args += ["--extra-classes", ",".join(bounds.extras)]
    return args


def _semantic_check(expected, kind: str, models, sem: Semantics, bounds: Bounds):
    """Exact report and exit code, and every printed system validated."""

    def check(rc: int, out: str) -> list[str]:
        problems = []
        if rc != expected.exit_code:
            problems.append(f"exit {rc}, expected {expected.exit_code}")
        if out != expected.stdout:
            problems.append("report differs from the reference")
        lines = out.splitlines()
        for i, line in enumerate(lines):
            if line.startswith(("WITNESS", "COUNTEREXAMPLE")):
                role = {"WITNESS": "member" if kind == "sem" else "witness",
                        "COUNTEREXAMPLE": "counterexample"}[line.split()[0]]
                try:
                    s = parse_dump(lines[i + 1 : i + 6])
                except ValueError as exc:
                    problems.append(f"unreadable system: {exc}")
                    continue
                problems += check_system(s, role, kind, models, sem, bounds)
        return problems

    return check


# ---------------------------------------------------------------------------
# sem-enum
# ---------------------------------------------------------------------------

def _sem_slots(rng: random.Random):
    """(language, semantics, bounds, edges, stereotypes) per slot, the edges
    drawn from a menu.  The menus of one slot have the same number of
    delegation attributes, so the same number of candidates."""
    taken: set[str] = set()
    r = lambda k: fresh_names(rng, k, taken)  # noqa: E731
    slots = []

    # 3 classes, direct, up to two objects: 512 sub relations x 13 assignments.
    a, b, c = r(3)
    menu = [
        [(a, (b,)), (b, (c,)), (c, ())],
        [(a, (b, c)), (b, ()), (c, ())],
        [(a, ()), (b, (a,)), (c, (a,))],
        [(c, (a, b)), (a, ()), (b, ())],
    ]
    slots.append(("CDSimp", DIRECT, Bounds(2), rng.choice(menu), {}))

    # 3 classes, delegate + SI, two objects, one class with two supers
    # (one delegation attribute), a singleton and an unknown stereotype.
    a, b, c = r(3)
    menu = [
        [(a, (b, c)), (b, ()), (c, ())],
        [(b, (c, a)), (a, ()), (c, ())],
        [(c, (a, b)), (a, (b,)), (b, ())],
    ]
    edges = rng.choice(menu)
    single, unknown = rng.sample([n for n, _ in edges], 2)
    stereo = {single: ("singleton",), unknown: (rng.choice(UNKNOWN_STEREOTYPES),)}
    slots.append(("CD", DELEGATE_SI, Bounds(2), edges, stereo))

    # 3 classes plus one extra name, delegate, no objects.
    a, b, c = r(3)
    (x,) = r(1)
    menu = [
        [(a, (b,)), (b, ()), (c, ())],
        [(a, ()), (b, (c,)), (c, (a,))],
        [(a, (c,)), (b, (c,)), (c, ())],
    ]
    slots.append(("CD", DELEGATE, Bounds(0, (x,)), rng.choice(menu), {}))

    # 4 classes, direct, no objects, a singleton.
    a, b, c, d = r(4)
    menu = [
        [(a, (b,)), (b, (c,)), (c, (d,)), (d, ())],
        [(a, (b, c)), (b, (d,)), (c, (d,)), (d, ())],
        [(a, ()), (b, ()), (c, (a, b)), (d, (c,))],
    ]
    edges = rng.choice(menu)
    stereo = {rng.choice([n for n, _ in edges]): ("singleton",)}
    slots.append(("CD", DIRECT, Bounds(0), edges, stereo))

    # 4 classes, delegate + SI, no objects, a diamond-like shape with one
    # delegation attribute.
    a, b, c, d = r(4)
    menu = [
        [(d, (b, c)), (b, (a,)), (c, (a,)), (a, ())],
        [(a, (b, c)), (b, (d,)), (c, (d,)), (d, ())],
        [(b, (a, d)), (a, ()), (c, (b,)), (d, ())],
    ]
    slots.append(("CDSimp", DELEGATE_SI, Bounds(0), rng.choice(menu), {}))
    return slots


def sem_enum(rng: random.Random, base: str) -> Workload:
    w = Workload("sem-enum", _semantics_files(base))
    w.files[f"{base}/cdsimp.mclang"] = CDSIMP_GRAMMAR
    w.files[f"{base}/cd.mclang"] = CD_GRAMMAR
    for i, (language, sem, bounds, edges, stereo) in enumerate(_sem_slots(rng)):
        decls = [ClassDecl(n, sups, stereo.get(n, ())) for n, sups in edges]
        rng.shuffle(decls)
        model = ClassDiagram(_word(rng), tuple(decls))
        path = f"{base}/sem{i}.cd"
        w.files[path] = cd_text(model, language, rng)
        k = rng.randint(1, 3)
        expected = expect_sem(model, sem, bounds, k)
        argv = ["sem", f"{base}/{language.lower()}.mclang", path,
                *_semantics_args(base, sem), *_bounds_args(bounds), "--witnesses", str(k)]
        w.ops.append(Op(f"sem{i}", argv, _semantic_check(expected, "sem", [model], sem, bounds)))
    return w


# ---------------------------------------------------------------------------
# analyze-mix
# ---------------------------------------------------------------------------

def _cd(rng, edges, stereo=None) -> ClassDiagram:
    stereo = stereo or {}
    decls = [ClassDecl(n, sups, stereo.get(n, ())) for n, sups in edges]
    return ClassDiagram(_word(rng), tuple(decls))


def analyze_mix(rng: random.Random, base: str) -> Workload:
    w = Workload("analyze-mix", _semantics_files(base))
    w.files[f"{base}/cdsimp.mclang"] = CDSIMP_GRAMMAR
    w.files[f"{base}/cd.mclang"] = CD_GRAMMAR
    w.files[f"{base}/cda.mclang"] = ASSERT_GRAMMAR
    taken: set[str] = set()
    r = lambda k: fresh_names(rng, k, taken)  # noqa: E731
    queries = []  # (kind, language, models, semantics, bounds)

    # Refinement that holds, full scan: 4 classes, the refined model adds a
    # super to the abstract one.
    a, b, c, d = r(4)
    abstract = _cd(rng, [(a, (b,)), (b, ()), (c, ()), (d, ())])
    refined = _cd(rng, [(a, (b,)), (b, ()), (c, (d,)), (d, ())])
    queries.append(("refine", "CDSimp", [refined, abstract], DIRECT, Bounds(0)))

    # Refinement that fails early: the first systems of the refined model
    # lack the abstract model's extra super.
    a, b, c, d = r(4)
    refined = _cd(rng, [(a, (b,)), (b, ()), (c, ()), (d, ())], {d: ("singleton",)})
    abstract = _cd(rng, [(a, (b,)), (b, (c,)), (c, ()), (d, ())])
    queries.append(("refine", "CD", [refined, abstract], DELEGATE_SI, Bounds(1)))

    # Equivalence of a model with itself, spelt differently: two full scans.
    a, b, c, d = r(4)
    edges = [(a, (b,)), (b, (d,)), (c, ()), (d, ())]
    queries.append(("equiv", "CD", [_cd(rng, edges), _cd(rng, list(reversed(edges)))], DIRECT, Bounds(0)))

    # Equivalence that fails in the backward direction, late: a full forward
    # scan, then the first system of the 4-chain, which has all ten pairs of
    # its closure.
    a, b, c, d = r(4)
    chain = [(a, (b,)), (b, (c,)), (c, (d,)), (d, ())]
    m1, m2 = _cd(rng, chain[:3] + [(d, (a,))]), _cd(rng, chain)
    queries.append(("equiv", "CDSimp", [m1, m2], DIRECT, Bounds(0)))

    # Refinement that fails only on the singleton cap: the first system with
    # two objects in the class the refined model leaves uncapped.
    a, b, c = r(3)
    plain = _cd(rng, [(a, ()), (b, (a,)), (c, ())])
    capped = _cd(rng, [(a, ()), (b, (a,)), (c, ())], {a: ("singleton",)})
    queries.append(("refine", "CD", [plain, capped], DIRECT, Bounds(2)))

    # Consistency with a witness: a chain and an assertion it allows.
    a, b, c, d = r(4)
    chain = _cd(rng, [(a, (b,)), (b, (c,)), (c, ()), (d, ())])
    claim = AssertionDoc(_word(rng), (Assertion(d, c), Assertion(c, a, negated=True)))
    queries.append(("consistent", "CDSimp", [chain, claim], DIRECT, Bounds(0)))

    # Inconsistency forced by transitivity: full scan.
    a, b, c, d = r(4)
    chain = _cd(rng, [(a, (b,)), (b, (c,)), (c, ()), (d, ())])
    claim = AssertionDoc(_word(rng), (Assertion(a, c, negated=True), Assertion(d, d)))
    queries.append(("consistent", "CDSimp", [chain, claim], DELEGATE, Bounds(0)))

    # Inconsistency forced by SingleInheritance: the delegate variant puts
    # the first super in SUB, the assertions the second, and SI then needs
    # the two supers related, which the assertions forbid.
    a, b, c = r(3)
    diamond = _cd(rng, [(c, (a, b)), (a, ()), (b, ())])
    claim = AssertionDoc(_word(rng), (Assertion(c, b), Assertion(a, b, negated=True),
                                      Assertion(b, a, negated=True)))
    queries.append(("consistent", "CDSimp", [diamond, claim], DELEGATE_SI, Bounds(1)))

    for i, (kind, language, models, sem, bounds) in enumerate(queries):
        grammar = f"{base}/{language.lower()}.mclang"
        args = [grammar]
        for j, m in enumerate(models):
            path = f"{base}/q{i}m{j}.{'cda' if isinstance(m, AssertionDoc) else 'cd'}"
            if isinstance(m, AssertionDoc):
                w.files[path] = assertion_text(m)
                args += [f"{base}/cda.mclang", path]
            else:
                w.files[path] = cd_text(m, language, rng)
                args.append(path)
        expected = expect_analysis(kind, models, sem, bounds)
        argv = ["analyze", kind, *args, *_semantics_args(base, sem), *_bounds_args(bounds)]
        w.ops.append(Op(f"{kind}{i}", argv, _semantic_check(expected, kind, models, sem, bounds)))
    return w


# ---------------------------------------------------------------------------
# frontend
# ---------------------------------------------------------------------------

def _exact(stdout: str, exit_code: int, extra: Callable[[], list[str]] | None = None):
    def check(rc: int, out: str) -> list[str]:
        problems = []
        if rc != exit_code:
            problems.append(f"exit {rc}, expected {exit_code}")
        if out != stdout:
            problems.append("output differs from what the generator planted")
        if extra is not None:
            problems += extra()
        return problems

    return check


def _shuffled(rng: random.Random, counts: list[tuple[object, int]]) -> list:
    """Each value repeated its count of times, in a seeded order."""
    out = [value for value, n in counts for _ in range(n)]
    rng.shuffle(out)
    return out


def _grammar(rng: random.Random, productions: int, sugars: int) -> tuple[str, str]:
    """A grammar whose productions reference only earlier ones, and the
    schema dump that follows from its fields."""
    names = fresh_names(rng, productions + sugars + 1)
    gname, prods, sugar_names = names[0], names[1 : productions + 1], names[productions + 1 :]
    rng.shuffle(prods)
    n = productions - 1
    items = [True] + _shuffled(rng, [(True, n * 6 // 10), (False, n - n * 6 // 10)])
    child = [False] + _shuffled(rng, [(True, n * 7 // 10), (False, n - n * 7 // 10)])
    kids = [False] + _shuffled(rng, [(True, n // 2), (False, n - n // 2)])
    lines, dump = [f"grammar {gname} {{"], []
    for i, p in enumerate(prods):
        body, types = [f'"k{i}"', "Name:IDENT"], ["IDENT"]
        if items[i]:
            body.append('(items:IDENT ("," items:IDENT)*)?')
            types.append('"IDENT list"')
        if child[i]:
            target = prods[rng.randrange(i)]
            body.append(f"(child:{target})?")
            types.append(f'"{target} option"')
        if kids[i]:
            target = prods[rng.randrange(i)]
            body.append(f"(kids:{target})*")
            types.append(f'"{target} list"')
        lines.append(f"    {p} = {' '.join(body)} \";\";")
        dump.append(f"datatype {p} = {p} {' '.join(types)}")
    for i, s in enumerate(sugar_names):
        base = prods[rng.randrange(len(prods))]
        lines.append(f'    sugar {s} for {base} = "s{i}" names:IDENT ("," names:IDENT)* ";";')
        dump.append(f'datatype {s} = {s} "IDENT list"')
    lines.append("}")
    schema = f"theory {gname}AS imports GeneralAS\nbegin\n" + "\n".join(dump) + "\nend\n"
    return "\n".join(lines) + "\n", schema


PLANTED = 20  # duplicate declarations, and supers that name no class


def _big_cd(rng: random.Random, classes: int, language: str, plant: bool):
    """A large class diagram, its text, its minimal AST dump and the
    context-condition violations it holds.

    The make-up is fixed: in CD, a tenth of the classes come in `classes`
    statements of three names and 15 % of the rest carry one or two
    stereotypes; 20 %, 50 %, 20 % and 10 % of the single statements name 0,
    1, 2 and 3 supers; 5 % of the statements follow a comment line.  With
    `plant`, PLANTED statements re-declare a class and PLANTED supers name no
    class.

    Returns (text, ast_dump, violations) where violations are
    (condition, line, col, message) tuples."""
    taken: set[str] = set()
    names = fresh_names(rng, classes, taken)
    rng.shuffle(names)
    undeclared = fresh_names(rng, PLANTED, taken) if plant else []
    runs = classes // 30 if language == "CD" else 0
    singles = classes - 3 * runs
    kinds = _shuffled(rng, [("classes", runs), ("class", singles)])
    supers = _shuffled(rng, [(0, singles // 5), (1, singles // 2), (2, singles // 5),
                             (3, singles - singles // 5 * 2 - singles // 2)])
    stereo_count = singles * 15 // 100 if language == "CD" else 0
    stereos = _shuffled(rng, [((), singles - stereo_count), (("singleton",), stereo_count // 3),
                              (("abstract", "entity"), stereo_count // 3),
                              (("entity", "singleton"), stereo_count - stereo_count // 3 * 2)])
    statements = []  # (kind, [ClassDecl]) with kind "class" | "classes"
    i = 0
    for kind in kinds:
        if kind == "classes":
            statements.append((kind, [ClassDecl(n) for n in names[i : i + 3]]))
            i += 3
            continue
        name = names[i]
        i += 1
        k = supers.pop()
        sups = tuple(rng.sample([n for n in rng.sample(names, k + 1) if n != name], k)) if k else ()
        statements.append((kind, [ClassDecl(name, sups, stereos.pop())]))
    if plant:
        singles_at = [j for j, (kind, _) in enumerate(statements) if kind == "class"]
        for u, j in zip(undeclared, rng.sample(singles_at, PLANTED)):
            c = statements[j][1][0]
            statements[j] = ("class", [ClassDecl(c.name, c.supers + (u,), c.stereotypes)])
        for _ in range(PLANTED):
            statements.insert(rng.randrange(len(statements) + 1), ("class", [ClassDecl(rng.choice(names))]))
    commented = set(rng.sample(range(len(statements)), len(statements) // 20))

    diagram = _word(rng)
    lines = [f"classdiagram {diagram} {{"]
    expanded = []  # (ClassDecl, line, col)
    for j, (kind, decls) in enumerate(statements):
        if j in commented:
            lines.append("    // " + _word(rng).lower())
        line = len(lines) + 1
        if kind == "classes":
            lines.append("    classes " + ", ".join(d.name for d in decls) + ";")
        else:
            lines.append(_class_line(decls[0], language, rng))
        expanded += [(d, line, 5) for d in decls]
    lines.append("}")

    def node(c: ClassDecl) -> str:
        if language == "CD":
            return f"(CDCClass Name={c.name} scl=[{','.join(c.supers)}] stereotypes={{{','.join(c.stereotypes)}}})"
        return f"(CDCClass Name={c.name} scl=[{','.join(c.supers)}])"

    items = f"[{','.join(node(c) for c, _, _ in expanded)}]"
    fields = sorted([("Name", diagram), ("classes" if language == "CD" else "CDCClass", items)])
    ast = "(CDDefinition " + " ".join(f"{k}={v}" for k, v in fields) + ")"

    violations = []
    seen: set[str] = set()
    all_names = {c.name for c, _, _ in expanded}
    for c, line, col in expanded:
        if c.name in seen:
            violations.append(("CC-unique-class-names", line, col, f"duplicate class name {c.name}"))
        seen.add(c.name)
        for sup in c.supers:
            if sup not in all_names:
                violations.append(("CC-supers-declared", line, col, f"class {c.name} extends undeclared class {sup}"))
        if len(c.supers) > 1:
            violations.append(("CC-single-inheritance-syntactic", line, col, f"class {c.name} has {len(c.supers)} super-classes"))
    return "\n".join(lines) + "\n", ast, sorted(violations)


KINDS = (
    "presentation",
    "syntactic-stereotype",
    "syntactic-language-parameter",
    "syntactic-context-condition",
)


def _feature_workspace(rng: random.Random, taken: set[str], diagrams: int, vps: int, plant: int):
    """Feature diagrams of syntactic features, valid selections, and
    satisfied constraints, with `plant` violations of each rule planted.
    Each diagram has `vps` variation points of 3 to 6 features, 30 % of them
    xor-groups.

    Returns (fd texts, conf texts, violation renderings)."""
    dnames = fresh_names(rng, diagrams, taken)
    rng.shuffle(dnames)
    model = []  # (diagram, [(vp, is_xor, [(feature, modality)])])
    selected: dict[str, set[str]] = {}
    home: dict[str, str] = {}
    for d in dnames:
        points = []
        selected[d] = set()
        sizes = _shuffled(rng, [(3 + v % 4, 1) for v in range(vps)])
        xors = _shuffled(rng, [(True, vps * 3 // 10), (False, vps - vps * 3 // 10)])
        for v in range(vps):
            feats = fresh_names(rng, sizes[v], taken)
            is_xor = xors[v]
            if is_xor:
                members = [(f, "xor-member") for f in feats]
                selected[d].add(rng.choice(feats))
            else:
                members = [(f, rng.choice(("optional", "optional", "mandatory"))) for f in feats]
                selected[d].update(f for f, m in members if m == "mandatory" or rng.random() < 0.5)
            for f in feats:
                home[f] = d
            points.append((f"vp{_word(rng)}{v}", is_xor, members))
        model.append((d, points))

    violations: list[str] = []
    xor_points = [(d, vp, members) for d, points in model for vp, x, members in points if x]
    for d, vp, members in rng.sample(xor_points, plant):
        names = [f for f, _ in members]
        selected[d] -= set(names)
        chosen = sorted(rng.sample(names, rng.choice((0, 2))))
        selected[d] |= set(chosen)
        violations.append(f"VIOLATION {d} xor-exactly-one {vp} selected={{{','.join(chosen)}}}")
    mandatory = [(d, f) for d, points in model for _, x, members in points for f, m in members if m == "mandatory"]
    for d, f in rng.sample(mandatory, plant):
        selected[d].discard(f)
        violations.append(f"VIOLATION {d} mandatory-missing {f}")
    for d in rng.sample(dnames, min(plant, len(dnames))):
        (u,) = fresh_names(rng, 1, taken)
        selected[d].add(u)
        violations.append(f"VIOLATION {d} unknown-feature {u}")

    features = sorted(home)
    constraints: dict[str, list[str]] = {d: [] for d in dnames}

    def ref(f: str) -> str:
        return f"{home[f]}.{f}" if rng.random() < 0.5 else f

    def is_on(f: str) -> bool:
        return f in selected[home[f]]

    wanted = {("requires", True): plant, ("excludes", True): plant,
              ("requires", False): 3 * plant, ("excludes", False): 3 * plant}
    while any(wanted.values()):
        src, tgt = rng.sample(features, 2)
        rel = rng.choice(("requires", "excludes"))
        broken = is_on(src) and (not is_on(tgt) if rel == "requires" else is_on(tgt))
        if not wanted[(rel, broken)]:
            continue
        wanted[(rel, broken)] -= 1
        s, t = ref(src), ref(tgt)
        owner = rng.choice(dnames)
        constraints[owner].append(f"    constraint {s} {rel} {t};")
        if broken:
            word = "without" if rel == "requires" else "with"
            violations.append(f"VIOLATION {owner} {rel} {s} {word} {t}")

    fds = []
    for d, points in model:
        out = [f"featurediagram {d} {{"]
        for vp, is_xor, members in points:
            out.append(f"    vp {vp} for theory {_word(rng)} {{")
            if is_xor:
                out.append("        xor {")
                out += [f"            feature {f} kind {rng.choice(KINDS)};" for f, _ in members]
                out.append("        }")
            else:
                out += [f"        {m} feature {f} kind {rng.choice(KINDS)};" for f, m in members]
            out.append("    }")
        out += constraints[d]
        out.append("}")
        fds.append("\n".join(out) + "\n")

    confs = []
    for d in dnames:
        picks = sorted(selected[d])
        rng.shuffle(picks)
        half = len(picks) // 2
        for part in (picks[:half], picks[half:]):
            body = "".join(f"    select {f};\n" for f in part)
            confs.append(f"configuration {_word(rng)}{len(confs)} for {d} {{\n{body}}}\n")
    rng.shuffle(confs)
    return fds, confs, sorted(violations)


def _theory_workspace(rng: random.Random, taken: set[str], extra_features: int):
    """A semantic-domain and a semantic-mapping diagram with many unselected
    features, a valid selection, and the theory documents it yields."""
    taken |= {"SingleInheritance", "MapSuperCDirect", "MapSuperCDelegate"}
    dom, lang = fresh_names(rng, 2, taken)
    si = rng.random() < 0.5
    mapping = "MapSuperCDelegate" if si else rng.choice(("MapSuperCDirect", "MapSuperCDelegate"))
    dvps = [f"v{n}" for n in fresh_names(rng, 6, taken)]
    mvps = [f"v{n}" for n in fresh_names(rng, 4, taken)]
    si_vp, map_vp = rng.choice(dvps), rng.choice(mvps)

    def optional_features(kind: str) -> list[str]:
        return [f"        optional feature {f} kind {kind};"
                for f in fresh_names(rng, extra_features // 10, taken)]

    out = [f"featurediagram {dom}Var {{"]
    for vp in dvps:
        out.append(f"    vp {vp} for theory {_word(rng)} {{")
        if vp == si_vp:
            out.append("        optional feature SingleInheritance kind semantic-domain;")
        out += optional_features("semantic-domain")
        out.append("    }")
    out.append("}")
    domain_fd = "\n".join(out) + "\n"
    out = [f"featurediagram {lang}SemVar {{"]
    for vp in mvps:
        out.append(f"    vp {vp} for theory {lang}Sem {{")
        if vp == map_vp:
            out += ["        xor {",
                    "            feature MapSuperCDirect kind semantic-mapping;",
                    "            feature MapSuperCDelegate kind semantic-mapping;",
                    "        }"]
        else:
            out += optional_features("semantic-mapping")
        out.append("    }")
    out.append(f"    constraint MapSuperCDirect excludes {dom}Var.SingleInheritance;")
    out.append("}")
    mapping_fd = "\n".join(out) + "\n"
    dom_conf = f"configuration {dom}Conf for {dom}Var {{\n" + ("    select SingleInheritance;\n" if si else "") + "}\n"
    map_conf = f"configuration {lang}Conf for {lang}SemVar {{\n    select {mapping};\n}}\n"

    conj = "valid-base sm ^ valid-SingleInheritance sm" if si else "valid-base sm"
    imports = f' "{si_vp}/SingleInheritance"' if si else ""
    theories = [
        ("SystemModel.thy.txt",
         f"theory SystemModel imports SystemModel-base{imports}\nbegin\n"
         f'constdefs "valid sm == {conj}"\nend\n'),
        (f"{lang}Sem.thy.txt", f'theory {lang}Sem imports {lang}Sem-base "{map_vp}/{mapping}"\nbegin end\n'),
    ]
    return domain_fd, mapping_fd, dom_conf, map_conf, theories


def _wf_op(label: str, grammar: str, model: str, optional: list[str], violations) -> Op:
    """`wf` with some optional conditions on; class names must be unique
    whatever is selected."""
    active = {"CC-unique-class-names", *optional}
    found = [v for v in violations if v[0] in active]
    if found:
        expected = "".join(f"CC {cc} {line}:{col} {msg}\n" for cc, line, col, msg in found)
    else:
        expected = f"OK {len(active)} conditions, no violations\n"
    return Op(label, ["wf", grammar, model, "--cc", ",".join(optional)],
              _exact(expected, 1 if found else 0))


def frontend(rng: random.Random, base: str) -> Workload:
    w = Workload("frontend")
    f = w.files

    grammar, schema = _grammar(rng, productions=150, sugars=20)
    f[f"{base}/gen.mclang"] = grammar
    w.ops.append(Op("check-grammar", ["check-grammar", f"{base}/gen.mclang"], _exact(schema, 0)))

    f[f"{base}/cd.mclang"] = CD_GRAMMAR
    f[f"{base}/cdsimp.mclang"] = CDSIMP_GRAMMAR
    text, ast, violations = _big_cd(rng, 2000, "CD", plant=True)
    f[f"{base}/big.cd"] = text
    w.ops.append(Op("parse-minimal", ["parse", f"{base}/cd.mclang", f"{base}/big.cd", "--minimal"],
                    _exact(ast + "\n", 0)))
    w.ops.append(_wf_op("wf-planted", f"{base}/cd.mclang", f"{base}/big.cd",
                        ["CC-supers-declared", "CC-single-inheritance-syntactic"], violations))
    text, _, violations = _big_cd(rng, 2000, "CDSimp", plant=False)
    f[f"{base}/clean.cd"] = text
    w.ops.append(_wf_op("wf-clean", f"{base}/cdsimp.mclang", f"{base}/clean.cd",
                        ["CC-supers-declared"], violations))

    fds, confs, planted = _feature_workspace(rng, set(), diagrams=4, vps=25, plant=4)
    paths = []
    for i, text in enumerate(fds):
        paths.append(f"{base}/ws{i}.fd")
        f[paths[-1]] = text
    for i, text in enumerate(confs):
        paths.append(f"{base}/ws{i}.conf")
        f[paths[-1]] = text
    w.ops.append(Op("fm-check-planted", ["fm-check", *paths], _exact("".join(v + "\n" for v in planted), 1)))

    taken: set[str] = set()
    domain_fd, mapping_fd, dom_conf, map_conf, theories = _theory_workspace(rng, taken, extra_features=200)
    syn_fds, syn_confs, _ = _feature_workspace(rng, taken, diagrams=2, vps=20, plant=0)
    f[f"{base}/th0.fd"] = syn_fds[0] + domain_fd
    f[f"{base}/th1.fd"] = mapping_fd + syn_fds[1]
    f[f"{base}/th0.conf"] = "".join(syn_confs) + dom_conf
    f[f"{base}/th1.conf"] = map_conf
    inputs = [f"{base}/th0.fd", f"{base}/th1.fd", f"{base}/th0.conf", f"{base}/th1.conf"]
    w.ops.append(Op("fm-check-clean", ["fm-check", *inputs],
                    _exact(f"OK 4 diagrams, {len(syn_confs) + 2} configurations\n", 0)))

    out_dir = f"{base}/gen"
    w.out_dirs.append(out_dir)

    def theory_files() -> list[str]:
        problems = []
        for name, body in theories:
            path = Path(out_dir) / name
            if not path.is_file() or path.read_text(encoding="utf-8") != body:
                problems.append(f"{name} differs from the planted imports")
        return problems

    listing = "".join(f"{out_dir}/{name}\n" for name, _ in theories)
    w.ops.append(Op("generate", ["generate", *inputs, "--out", out_dir], _exact(listing, 0, theory_files)))

    f[f"{base}/nested.mclang"] = NESTED_GRAMMAR
    f[f"{base}/nested.txt"] = " ".join(["a"] * NESTED_DEPTH) + "\n"
    nested_ast = "(A A=" * NESTED_DEPTH + "-" + ")" * NESTED_DEPTH + "\n"

    def nested(rc: int, out: str) -> list[str]:
        if (rc, out) in ((0, nested_ast), (1, "")):
            return []
        return [f"exit {rc} without an AST of depth {NESTED_DEPTH} or a parse error"]

    w.ops.append(Op("parse-nested", ["parse", f"{base}/nested.mclang", f"{base}/nested.txt"],
                    nested, known_fault=True))
    return w


GENERATORS = {"sem-enum": sem_enum, "analyze-mix": analyze_mix, "frontend": frontend}


def build(name: str, seed: int, base: str) -> Workload:
    return GENERATORS[name](random.Random(f"{name}:{seed}"), base)
